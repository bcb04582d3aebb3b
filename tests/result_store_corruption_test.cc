// Adversarial bytes against the result store: a single bit flip at
// EVERY byte offset of an entry file, truncation at EVERY length of an
// entry file, and the same treatment for store.idx. The invariants
// under attack: the store never crashes, never serves data that fails
// validation, counts and quarantines corrupt entries, and a damaged
// index only ever costs a rebuild-by-scan — never an answer. Plus the
// collision case: a *valid* entry reached through the wrong key
// (filename-hash collision) is a miss, not corruption.

#include "store/result_store.h"
#include "tests/test_util.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

namespace kplex {
namespace {

namespace fs = std::filesystem;

std::string FreshDir(const std::string& tag) {
  std::string dir = testing_util::UniqueTempPath(tag);
  fs::remove_all(dir);
  return dir;
}

StoreKey SampleKey() {
  StoreKey key;
  key.graph_hash = 0x1122334455667788ULL;
  key.signature = "g|k=2|q=4|algo=ours|max=0|pre=none";
  return key;
}

StoredResult SampleResult() {
  StoredResult result;
  result.num_plexes = 114;
  result.max_plex_size = 6;
  result.fingerprint = 0xb4fdf23b5801cfefULL;
  result.fingerprint_xor = 0x0123456789abcdefULL;
  result.total_seeds = 34;
  result.compute_seconds = 0.004;
  result.reduction_precomputed = true;
  result.plexes = std::make_shared<const std::vector<std::vector<VertexId>>>(
      std::vector<std::vector<VertexId>>{{0, 1, 2, 33}, {4, 5, 6}});
  return result;
}

std::vector<unsigned char> ReadAll(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  std::vector<unsigned char> bytes;
  if (f != nullptr) {
    std::fseek(f, 0, SEEK_END);
    bytes.resize(static_cast<std::size_t>(std::ftell(f)));
    std::fseek(f, 0, SEEK_SET);
    EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
  }
  return bytes;
}

void WriteAll(const std::string& path, const std::vector<unsigned char>& b,
              std::size_t length) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  if (length > 0) {
    ASSERT_EQ(std::fwrite(b.data(), 1, length, f), length);
  }
  std::fclose(f);
}

/// Seeds a store directory with one entry and returns its pristine
/// bytes plus the entry path.
struct Seeded {
  std::string dir;
  std::string entry_path;
  std::vector<unsigned char> entry_bytes;
  std::vector<unsigned char> index_bytes;
};

Seeded SeedStore(const std::string& tag) {
  Seeded seeded;
  seeded.dir = FreshDir(tag);
  StoreOptions options;
  options.directory = seeded.dir;
  auto store = ResultStore::Open(std::move(options));
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_TRUE((*store)->Put(SampleKey(), SampleResult()).ok());
  seeded.entry_path =
      seeded.dir + "/" +
      ResultStore::EntryFileName(ResultStore::KeyHash(SampleKey()));
  seeded.entry_bytes = ReadAll(seeded.entry_path);
  seeded.index_bytes = ReadAll(seeded.dir + "/store.idx");
  return seeded;
}

TEST(ResultStoreCorruption, ByteFlipAtEveryEntryOffsetIsRefused) {
  Seeded seeded = SeedStore("flip_entry");
  ASSERT_GT(seeded.entry_bytes.size(), 0u);
  for (std::size_t offset = 0; offset < seeded.entry_bytes.size(); ++offset) {
    std::vector<unsigned char> tampered = seeded.entry_bytes;
    tampered[offset] ^= 0x5a;
    WriteAll(seeded.entry_path, tampered, tampered.size());

    StoreOptions options;
    options.directory = seeded.dir;
    auto store = ResultStore::Open(std::move(options));
    ASSERT_TRUE(store.ok()) << "offset " << offset;
    auto read = (*store)->Get(SampleKey());
    // A flipped checksum field or payload byte can never validate; the
    // only acceptable outcomes are refusal — never wrong data, never a
    // crash.
    EXPECT_FALSE(read.has_value()) << "served tampered bytes, offset "
                                   << offset;
    EXPECT_EQ((*store)->stats().corrupt_entries, 1u) << "offset " << offset;
    // The tampered file was quarantined, not left to fail again.
    EXPECT_FALSE(fs::exists(seeded.entry_path)) << "offset " << offset;
    EXPECT_TRUE(fs::exists(seeded.entry_path + ".bad"))
        << "offset " << offset;

    fs::remove(seeded.entry_path + ".bad");
  }
  fs::remove_all(seeded.dir);
}

TEST(ResultStoreCorruption, TruncationAtEveryEntryLengthIsRefused) {
  Seeded seeded = SeedStore("trunc_entry");
  for (std::size_t length = 0; length < seeded.entry_bytes.size(); ++length) {
    WriteAll(seeded.entry_path, seeded.entry_bytes, length);

    StoreOptions options;
    options.directory = seeded.dir;
    auto store = ResultStore::Open(std::move(options));
    ASSERT_TRUE(store.ok()) << "length " << length;
    auto read = (*store)->Get(SampleKey());
    EXPECT_FALSE(read.has_value()) << "served truncated entry, length "
                                   << length;
    EXPECT_EQ((*store)->stats().corrupt_entries, 1u) << "length " << length;
    EXPECT_FALSE(fs::exists(seeded.entry_path)) << "length " << length;

    fs::remove(seeded.entry_path + ".bad");
  }
  fs::remove_all(seeded.dir);
}

TEST(ResultStoreCorruption, ByteFlipAtEveryIndexOffsetOnlyCostsARebuild) {
  Seeded seeded = SeedStore("flip_index");
  const std::string index_path = seeded.dir + "/store.idx";
  ASSERT_GT(seeded.index_bytes.size(), 0u);
  for (std::size_t offset = 0; offset < seeded.index_bytes.size(); ++offset) {
    std::vector<unsigned char> tampered = seeded.index_bytes;
    tampered[offset] ^= 0x5a;
    WriteAll(index_path, tampered, tampered.size());
    // The entry itself is intact; restore it in case a previous
    // iteration's Get path touched anything.
    WriteAll(seeded.entry_path, seeded.entry_bytes,
             seeded.entry_bytes.size());

    StoreOptions options;
    options.directory = seeded.dir;
    auto store = ResultStore::Open(std::move(options));
    ASSERT_TRUE(store.ok()) << "offset " << offset;
    // Whatever the index claimed, the directory scan is the source of
    // truth: the durable entry must still be served, bit-identically.
    auto read = (*store)->Get(SampleKey());
    ASSERT_TRUE(read.has_value()) << "lost a durable entry to an index "
                                  << "flip at offset " << offset;
    EXPECT_EQ(read->fingerprint, SampleResult().fingerprint);
    EXPECT_EQ(read->num_plexes, SampleResult().num_plexes);
    EXPECT_EQ((*store)->stats().corrupt_entries, 0u) << "offset " << offset;
  }
  fs::remove_all(seeded.dir);
}

TEST(ResultStoreCorruption, TruncationAtEveryIndexLengthOnlyCostsARebuild) {
  Seeded seeded = SeedStore("trunc_index");
  const std::string index_path = seeded.dir + "/store.idx";
  for (std::size_t length = 0; length < seeded.index_bytes.size(); ++length) {
    WriteAll(index_path, seeded.index_bytes, length);
    WriteAll(seeded.entry_path, seeded.entry_bytes,
             seeded.entry_bytes.size());

    StoreOptions options;
    options.directory = seeded.dir;
    auto store = ResultStore::Open(std::move(options));
    ASSERT_TRUE(store.ok()) << "length " << length;
    auto read = (*store)->Get(SampleKey());
    ASSERT_TRUE(read.has_value()) << "lost a durable entry to an index "
                                  << "truncation at length " << length;
    EXPECT_EQ(read->fingerprint, SampleResult().fingerprint);
    EXPECT_EQ((*store)->stats().corrupt_entries, 0u) << "length " << length;
  }
  fs::remove_all(seeded.dir);
}

TEST(ResultStoreCorruption, ValidEntryUnderWrongKeyIsAMissNotCorruption) {
  Seeded seeded = SeedStore("collision");
  // Simulate a filename-hash collision: copy the valid entry for
  // SampleKey onto the filename another key hashes to. The embedded key
  // check must turn the lookup into a plain miss — the entry validates,
  // so it is NOT corruption, and it must never be served for the
  // wrong key.
  StoreKey other = SampleKey();
  other.graph_hash ^= 0xffff;  // same signature, different graph bytes
  const std::string other_path =
      seeded.dir + "/" +
      ResultStore::EntryFileName(ResultStore::KeyHash(other));
  fs::copy_file(seeded.entry_path, other_path);

  StoreOptions options;
  options.directory = seeded.dir;
  auto store = ResultStore::Open(std::move(options));
  ASSERT_TRUE(store.ok());
  EXPECT_FALSE((*store)->Get(other).has_value());
  const ResultStore::Stats stats = (*store)->stats();
  EXPECT_EQ(stats.corrupt_entries, 0u);
  EXPECT_EQ(stats.misses, 1u);
  // The colliding file stays (it is valid — just not ours to serve),
  // and the real key still hits.
  EXPECT_TRUE(fs::exists(other_path));
  EXPECT_TRUE((*store)->Get(SampleKey()).has_value());
  fs::remove_all(seeded.dir);
}

TEST(ResultStoreCorruption, ForeignAndBadFilesAreIgnoredByRecovery) {
  Seeded seeded = SeedStore("foreign");
  // Drop assorted junk into the directory: recovery must skip it all
  // without crashing or counting it as entries.
  WriteAll(seeded.dir + "/README", {'h', 'i'}, 2);
  WriteAll(seeded.dir + "/zzzz.kpr", {'x'}, 1);  // not 16 hex digits
  WriteAll(seeded.dir + "/0123456789abcdef.bad", {'x'}, 1);

  StoreOptions options;
  options.directory = seeded.dir;
  auto store = ResultStore::Open(std::move(options));
  ASSERT_TRUE(store.ok());
  EXPECT_EQ((*store)->stats().entries, 1u);  // just the real entry
  EXPECT_TRUE((*store)->Get(SampleKey()).has_value());
  fs::remove_all(seeded.dir);
}

}  // namespace
}  // namespace kplex
