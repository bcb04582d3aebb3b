// Unit tests for the durable result store: round-trips, reopen
// semantics, the crash battery (simulated kills at every fault point of
// a write via the injectable StoreHooks), index rebuild from a
// directory scan, LRU byte-budget eviction, and EvictAll.

#include "store/result_store.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "tests/test_util.h"
#include "util/status.h"

namespace kplex {
namespace {

namespace fs = std::filesystem;

std::string FreshDir(const std::string& tag) {
  std::string dir = testing_util::UniqueTempPath(tag);
  fs::remove_all(dir);
  return dir;
}

StoreKey Key(uint64_t graph_hash, const std::string& signature) {
  StoreKey key;
  key.graph_hash = graph_hash;
  key.signature = signature;
  return key;
}

StoredResult SampleResult(uint64_t salt) {
  StoredResult result;
  result.num_plexes = 100 + salt;
  result.max_plex_size = 7 + salt;
  result.fingerprint = 0xdeadbeef00000000ULL | salt;
  result.fingerprint_xor = 0x1234000000000000ULL ^ salt;
  result.total_seeds = 55 + salt;
  result.compute_seconds = 0.125 * static_cast<double>(salt + 1);
  result.reduction_precomputed = (salt % 2) == 0;
  return result;
}

// Bit-identical comparison, including the double (a warm hit must
// report exactly the persisted answer, not a lossy copy of it).
void ExpectSameResult(const StoredResult& expected,
                      const StoredResult& actual) {
  EXPECT_EQ(expected.num_plexes, actual.num_plexes);
  EXPECT_EQ(expected.max_plex_size, actual.max_plex_size);
  EXPECT_EQ(expected.fingerprint, actual.fingerprint);
  EXPECT_EQ(expected.fingerprint_xor, actual.fingerprint_xor);
  EXPECT_EQ(expected.total_seeds, actual.total_seeds);
  EXPECT_EQ(expected.compute_seconds, actual.compute_seconds);
  EXPECT_EQ(expected.reduction_precomputed, actual.reduction_precomputed);
  ASSERT_EQ(expected.plexes != nullptr, actual.plexes != nullptr);
  if (expected.plexes != nullptr) {
    EXPECT_EQ(*expected.plexes, *actual.plexes);
  }
}

std::unique_ptr<ResultStore> MustOpen(const std::string& dir,
                                      uint64_t byte_budget = 0) {
  StoreOptions options;
  options.directory = dir;
  options.byte_budget = byte_budget;
  auto store = ResultStore::Open(std::move(options));
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  return std::move(*store);
}

TEST(ResultStore, PutThenGetRoundTripsSummary) {
  const std::string dir = FreshDir("roundtrip");
  auto store = MustOpen(dir);
  const StoreKey key = Key(0xabc, "g|k=2|q=5|algo=ours|max=0|pre=none");
  const StoredResult written = SampleResult(3);
  ASSERT_TRUE(store->Put(key, written).ok());

  auto read = store->Get(key);
  ASSERT_TRUE(read.has_value());
  ExpectSameResult(written, *read);

  const ResultStore::Stats stats = store->stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.writes, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.corrupt_entries, 0u);
  EXPECT_GT(stats.bytes, 0u);
  fs::remove_all(dir);
}

TEST(ResultStore, PutThenGetRoundTripsBodiesInOrder) {
  const std::string dir = FreshDir("bodies");
  auto store = MustOpen(dir);
  const StoreKey key = Key(7, "g|k=2|q=4|algo=ours|max=0|bodies=on|pre=none");
  StoredResult written = SampleResult(1);
  // Deliberately not sorted: emission order must survive the round trip
  // (it is what cursors paginate).
  written.plexes = std::make_shared<const std::vector<std::vector<VertexId>>>(
      std::vector<std::vector<VertexId>>{
          {5, 1, 9, 300000}, {0, 2, 3}, {128, 129, 130, 131}});
  ASSERT_TRUE(store->Put(key, written).ok());

  auto read = store->Get(key);
  ASSERT_TRUE(read.has_value());
  ExpectSameResult(written, *read);
  fs::remove_all(dir);
}

TEST(ResultStore, MissOnUnknownKeyCountsMiss) {
  const std::string dir = FreshDir("miss");
  auto store = MustOpen(dir);
  EXPECT_FALSE(store->Get(Key(1, "nope")).has_value());
  EXPECT_EQ(store->stats().misses, 1u);
  EXPECT_EQ(store->stats().corrupt_entries, 0u);
  fs::remove_all(dir);
}

TEST(ResultStore, ReopenServesDurableEntriesBitIdentically) {
  const std::string dir = FreshDir("reopen");
  const StoreKey key_a = Key(1, "a|k=2|q=4|algo=ours|max=0|pre=none");
  const StoreKey key_b = Key(2, "b|k=3|q=6|algo=basic|max=0|pre=none");
  const StoredResult result_a = SampleResult(10);
  const StoredResult result_b = SampleResult(20);
  {
    auto store = MustOpen(dir);
    ASSERT_TRUE(store->Put(key_a, result_a).ok());
    ASSERT_TRUE(store->Put(key_b, result_b).ok());
  }
  auto store = MustOpen(dir);
  EXPECT_EQ(store->stats().entries, 2u);
  auto read_a = store->Get(key_a);
  auto read_b = store->Get(key_b);
  ASSERT_TRUE(read_a.has_value());
  ASSERT_TRUE(read_b.has_value());
  ExpectSameResult(result_a, *read_a);
  ExpectSameResult(result_b, *read_b);
  fs::remove_all(dir);
}

TEST(ResultStore, OverwriteIsLastWriterWins) {
  const std::string dir = FreshDir("overwrite");
  auto store = MustOpen(dir);
  const StoreKey key = Key(5, "g|k=2|q=4|algo=ours|max=0|pre=none");
  ASSERT_TRUE(store->Put(key, SampleResult(1)).ok());
  const StoredResult second = SampleResult(2);
  ASSERT_TRUE(store->Put(key, second).ok());
  EXPECT_EQ(store->stats().entries, 1u);
  auto read = store->Get(key);
  ASSERT_TRUE(read.has_value());
  ExpectSameResult(second, *read);
  fs::remove_all(dir);
}

// ------------------------------------------------------------ crash battery

TEST(ResultStore, CrashBeforeEntryFlushLeavesNoServableEntry) {
  const std::string dir = FreshDir("crash_flush");
  const StoreKey key = Key(9, "g|k=2|q=4|algo=ours|max=0|pre=none");
  {
    auto store = MustOpen(dir);
    StoreHooks hooks;
    std::string tmp_seen;
    hooks.before_entry_flush = [&](const std::string& tmp) {
      tmp_seen = tmp;
      // Tear the file like a mid-write crash would: truncate whatever
      // the OS had buffered down to a prefix.
      std::FILE* f = std::fopen(tmp.c_str(), "wb");
      if (f != nullptr) {
        std::fputs("torn", f);
        std::fclose(f);
      }
      return false;
    };
    store->SetHooksForTest(hooks);
    Status put = store->Put(key, SampleResult(1));
    EXPECT_FALSE(put.ok());
    EXPECT_EQ(put.code(), StatusCode::kAborted);
    EXPECT_TRUE(fs::exists(tmp_seen));  // the corpse a crash leaves
    store->SetHooksForTest(StoreHooks{});
    EXPECT_FALSE(store->Get(key).has_value());  // never promoted
  }
  // Reopen: the orphaned tmp is swept, the store is empty and usable.
  auto store = MustOpen(dir);
  EXPECT_EQ(store->stats().entries, 0u);
  EXPECT_FALSE(store->Get(key).has_value());
  for (const auto& dirent : fs::directory_iterator(dir)) {
    EXPECT_NE(dirent.path().extension(), ".tmp") << dirent.path();
  }
  ASSERT_TRUE(store->Put(key, SampleResult(1)).ok());
  EXPECT_TRUE(store->Get(key).has_value());
  fs::remove_all(dir);
}

TEST(ResultStore, CrashBeforeEntryRenameLeavesNoServableEntry) {
  const std::string dir = FreshDir("crash_rename");
  const StoreKey key = Key(11, "g|k=2|q=4|algo=ours|max=0|pre=none");
  {
    auto store = MustOpen(dir);
    StoreHooks hooks;
    std::string tmp_seen;
    hooks.before_entry_rename = [&](const std::string& tmp) {
      tmp_seen = tmp;
      return false;
    };
    store->SetHooksForTest(hooks);
    Status put = store->Put(key, SampleResult(1));
    EXPECT_EQ(put.code(), StatusCode::kAborted);
    // The tmp holds a complete, durable entry — but it was never
    // renamed, so it must never be trusted.
    EXPECT_TRUE(fs::exists(tmp_seen));
    store->SetHooksForTest(StoreHooks{});
    EXPECT_FALSE(store->Get(key).has_value());
  }
  auto store = MustOpen(dir);
  EXPECT_EQ(store->stats().entries, 0u);
  EXPECT_FALSE(store->Get(key).has_value());
  for (const auto& dirent : fs::directory_iterator(dir)) {
    EXPECT_NE(dirent.path().extension(), ".tmp") << dirent.path();
  }
  fs::remove_all(dir);
}

TEST(ResultStore, CrashMidIndexRewriteEntrySurvivesReopen) {
  const std::string dir = FreshDir("crash_index");
  const StoreKey key = Key(13, "g|k=2|q=4|algo=ours|max=0|pre=none");
  const StoredResult written = SampleResult(4);
  {
    auto store = MustOpen(dir);
    StoreHooks hooks;
    hooks.before_index_rename = [](const std::string&) { return false; };
    store->SetHooksForTest(hooks);
    Status put = store->Put(key, written);
    // The entry itself was promoted; only the index rewrite "crashed".
    EXPECT_EQ(put.code(), StatusCode::kAborted);
    store->SetHooksForTest(StoreHooks{});
    auto read = store->Get(key);
    ASSERT_TRUE(read.has_value());
    ExpectSameResult(written, *read);
  }
  // Reopen with the stale on-disk index (it still says "no entries"):
  // the scan adopts the durable entry and sweeps the index tmp.
  auto store = MustOpen(dir);
  EXPECT_EQ(store->stats().entries, 1u);
  auto read = store->Get(key);
  ASSERT_TRUE(read.has_value());
  ExpectSameResult(written, *read);
  for (const auto& dirent : fs::directory_iterator(dir)) {
    EXPECT_NE(dirent.path().extension(), ".tmp") << dirent.path();
  }
  EXPECT_TRUE(fs::exists(dir + "/store.idx"));  // repaired by Recover
  fs::remove_all(dir);
}

// --------------------------------------------------- index reconciliation

TEST(ResultStore, DeletedIndexIsRebuiltFromDirectoryScan) {
  const std::string dir = FreshDir("rebuild");
  const StoreKey key = Key(17, "g|k=2|q=4|algo=ours|max=0|pre=none");
  const StoredResult written = SampleResult(6);
  {
    auto store = MustOpen(dir);
    ASSERT_TRUE(store->Put(key, written).ok());
  }
  ASSERT_TRUE(fs::remove(dir + "/store.idx"));
  auto store = MustOpen(dir);
  EXPECT_EQ(store->stats().entries, 1u);
  auto read = store->Get(key);
  ASSERT_TRUE(read.has_value());
  ExpectSameResult(written, *read);
  EXPECT_TRUE(fs::exists(dir + "/store.idx"));
  fs::remove_all(dir);
}

TEST(ResultStore, IndexRowWithoutFileIsDropped) {
  const std::string dir = FreshDir("stale_row");
  const StoreKey key = Key(19, "g|k=2|q=4|algo=ours|max=0|pre=none");
  {
    auto store = MustOpen(dir);
    ASSERT_TRUE(store->Put(key, SampleResult(1)).ok());
    ASSERT_TRUE(
        fs::remove(dir + "/" +
                   ResultStore::EntryFileName(ResultStore::KeyHash(key))));
  }
  auto store = MustOpen(dir);
  EXPECT_EQ(store->stats().entries, 0u);
  EXPECT_EQ(store->stats().bytes, 0u);
  EXPECT_FALSE(store->Get(key).has_value());
  fs::remove_all(dir);
}

// ------------------------------------------------------------------ eviction

TEST(ResultStore, LruEvictionRespectsGetRecency) {
  const std::string dir = FreshDir("lru");
  const StoreKey key_a = Key(1, "a|k=2|q=4|algo=ours|max=0|pre=none");
  const StoreKey key_b = Key(2, "b|k=2|q=4|algo=ours|max=0|pre=none");
  const StoreKey key_c = Key(3, "c|k=2|q=4|algo=ours|max=0|pre=none");
  uint64_t entry_bytes = 0;
  {
    auto probe = MustOpen(dir);
    ASSERT_TRUE(probe->Put(key_a, SampleResult(1)).ok());
    entry_bytes = probe->stats().bytes;
    ASSERT_GT(entry_bytes, 0u);
  }
  fs::remove_all(dir);
  // Budget fits two entries (signatures are same-length so entries are
  // same-size), not three.
  auto store = MustOpen(dir, 2 * entry_bytes + entry_bytes / 2);
  ASSERT_TRUE(store->Put(key_a, SampleResult(1)).ok());
  ASSERT_TRUE(store->Put(key_b, SampleResult(2)).ok());
  ASSERT_TRUE(store->Get(key_a).has_value());  // bump A over B
  ASSERT_TRUE(store->Put(key_c, SampleResult(3)).ok());

  EXPECT_EQ(store->stats().entries, 2u);
  EXPECT_GE(store->stats().evictions, 1u);
  EXPECT_TRUE(store->Get(key_a).has_value());
  EXPECT_FALSE(store->Get(key_b).has_value());  // the LRU victim
  EXPECT_TRUE(store->Get(key_c).has_value());
  EXPECT_FALSE(fs::exists(
      dir + "/" + ResultStore::EntryFileName(ResultStore::KeyHash(key_b))));
  fs::remove_all(dir);
}

TEST(ResultStore, SoleOversizedEntrySurvivesItsOwnWrite) {
  const std::string dir = FreshDir("oversized");
  auto store = MustOpen(dir, 1);  // absurd budget: smaller than any entry
  const StoreKey key = Key(23, "g|k=2|q=4|algo=ours|max=0|pre=none");
  ASSERT_TRUE(store->Put(key, SampleResult(1)).ok());
  EXPECT_EQ(store->stats().entries, 1u);
  EXPECT_TRUE(store->Get(key).has_value());
  fs::remove_all(dir);
}

TEST(ResultStore, EvictAllEmptiesTheStoreButKeepsItUsable) {
  const std::string dir = FreshDir("evict_all");
  auto store = MustOpen(dir);
  const StoreKey key_a = Key(1, "a|k=2|q=4|algo=ours|max=0|pre=none");
  const StoreKey key_b = Key(2, "b|k=2|q=4|algo=ours|max=0|pre=none");
  ASSERT_TRUE(store->Put(key_a, SampleResult(1)).ok());
  ASSERT_TRUE(store->Put(key_b, SampleResult(2)).ok());
  const uint64_t bytes_before = store->stats().bytes;

  const ResultStore::EvictOutcome outcome = store->EvictAll();
  EXPECT_EQ(outcome.entries, 2u);
  EXPECT_EQ(outcome.bytes, bytes_before);
  EXPECT_EQ(store->stats().entries, 0u);
  EXPECT_EQ(store->stats().bytes, 0u);
  EXPECT_FALSE(store->Get(key_a).has_value());
  EXPECT_FALSE(store->Get(key_b).has_value());

  // Still a working store afterwards, including across a reopen.
  ASSERT_TRUE(store->Put(key_a, SampleResult(9)).ok());
  store.reset();
  auto reopened = MustOpen(dir);
  EXPECT_EQ(reopened->stats().entries, 1u);
  EXPECT_TRUE(reopened->Get(key_a).has_value());
  fs::remove_all(dir);
}

TEST(ResultStore, EntryFileNameMatchesWhatPutCreates) {
  const std::string dir = FreshDir("filename");
  auto store = MustOpen(dir);
  const StoreKey key = Key(29, "g|k=2|q=4|algo=ours|max=0|pre=none");
  ASSERT_TRUE(store->Put(key, SampleResult(1)).ok());
  // The corruption tests and the smoke script locate entries this way;
  // the contract must hold.
  EXPECT_TRUE(fs::exists(
      dir + "/" + ResultStore::EntryFileName(ResultStore::KeyHash(key))));
  fs::remove_all(dir);
}

TEST(ResultStore, OpenRefusesEmptyDirectoryOption) {
  auto store = ResultStore::Open(StoreOptions{});
  EXPECT_FALSE(store.ok());
  EXPECT_EQ(store.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace kplex
