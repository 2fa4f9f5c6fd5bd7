#include "storage/file_store.h"

#include <gtest/gtest.h>

#include "testing/test_util.h"

namespace deepeverest {
namespace storage {
namespace {

using testing_util::TempDir;

std::vector<uint8_t> Bytes(const std::string& s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}

TEST(FileStoreTest, WriteReadRoundTrip) {
  TempDir dir("fs");
  auto store = FileStore::Open(dir.path());
  ASSERT_TRUE(store.ok());
  DE_ASSERT_OK(store->Write("a.bin", Bytes("hello")));
  auto data = store->Read("a.bin");
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(std::string(data->begin(), data->end()), "hello");
}

TEST(FileStoreTest, NestedKeysCreateDirectories) {
  TempDir dir("fs");
  auto store = FileStore::Open(dir.path());
  ASSERT_TRUE(store.ok());
  DE_ASSERT_OK(store->Write("snapshot/model/layer_3.g1.seg", Bytes("xyz")));
  EXPECT_TRUE(store->Exists("snapshot/model/layer_3.g1.seg"));
  auto size = store->SizeOf("snapshot/model/layer_3.g1.seg");
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 3u);
}

TEST(FileStoreTest, MissingKeyIsNotFound) {
  TempDir dir("fs");
  auto store = FileStore::Open(dir.path());
  ASSERT_TRUE(store.ok());
  EXPECT_FALSE(store->Exists("nope"));
  EXPECT_TRUE(store->Read("nope").status().IsNotFound());
  EXPECT_TRUE(store->SizeOf("nope").status().IsNotFound());
}

TEST(FileStoreTest, OverwriteReplaces) {
  TempDir dir("fs");
  auto store = FileStore::Open(dir.path());
  ASSERT_TRUE(store.ok());
  DE_ASSERT_OK(store->Write("k", Bytes("first-longer")));
  DE_ASSERT_OK(store->Write("k", Bytes("2nd")));
  auto data = store->Read("k");
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(std::string(data->begin(), data->end()), "2nd");
}

TEST(FileStoreTest, RemoveIsIdempotent) {
  TempDir dir("fs");
  auto store = FileStore::Open(dir.path());
  ASSERT_TRUE(store.ok());
  DE_ASSERT_OK(store->Write("k", Bytes("v")));
  DE_ASSERT_OK(store->Remove("k"));
  EXPECT_FALSE(store->Exists("k"));
  DE_ASSERT_OK(store->Remove("k"));  // second removal still OK
}

TEST(FileStoreTest, TotalBytesAndListKeys) {
  TempDir dir("fs");
  auto store = FileStore::Open(dir.path());
  ASSERT_TRUE(store.ok());
  DE_ASSERT_OK(store->Write("a", Bytes("12345")));
  DE_ASSERT_OK(store->Write("sub/b", Bytes("123")));
  auto total = store->TotalBytes();
  ASSERT_TRUE(total.ok());
  EXPECT_EQ(*total, 8u);
  auto keys = store->ListKeys();
  ASSERT_TRUE(keys.ok());
  EXPECT_EQ(*keys, (std::vector<std::string>{"a", "sub/b"}));
}

TEST(FileStoreTest, ClearEmptiesStore) {
  TempDir dir("fs");
  auto store = FileStore::Open(dir.path());
  ASSERT_TRUE(store.ok());
  DE_ASSERT_OK(store->Write("a", Bytes("1")));
  DE_ASSERT_OK(store->Write("x/y/z", Bytes("2")));
  DE_ASSERT_OK(store->Clear());
  auto keys = store->ListKeys();
  ASSERT_TRUE(keys.ok());
  EXPECT_TRUE(keys->empty());
}

TEST(FileStoreTest, SyncedWriteSucceeds) {
  TempDir dir("fs");
  auto store = FileStore::Open(dir.path());
  ASSERT_TRUE(store.ok());
  DE_ASSERT_OK(store->Write("synced", Bytes("durable"), /*sync=*/true));
  EXPECT_TRUE(store->Exists("synced"));
}

TEST(FileStoreTest, EmptyPayload) {
  TempDir dir("fs");
  auto store = FileStore::Open(dir.path());
  ASSERT_TRUE(store.ok());
  DE_ASSERT_OK(store->Write("empty", {}));
  auto data = store->Read("empty");
  ASSERT_TRUE(data.ok());
  EXPECT_TRUE(data->empty());
}

TEST(FileStoreTest, TrafficCountersTrackPayloadBytes) {
  TempDir dir("fs");
  auto store = FileStore::Open(dir.path());
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(store->bytes_written(), 0u);
  EXPECT_EQ(store->bytes_read(), 0u);
  DE_ASSERT_OK(store->Write("a", Bytes("12345")));
  EXPECT_EQ(store->bytes_written(), 5u);
  ASSERT_TRUE(store->Read("a").ok());
  EXPECT_EQ(store->bytes_read(), 5u);
  ASSERT_TRUE(store->Read("a").ok());
  EXPECT_EQ(store->bytes_read(), 10u);  // accumulates per read
  store->ResetTraffic();
  EXPECT_EQ(store->bytes_written(), 0u);
  EXPECT_EQ(store->bytes_read(), 0u);
}

TEST(MakeTempDirTest, CreatesDistinctDirs) {
  auto a = MakeTempDir("t");
  auto b = MakeTempDir("t");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(*a, *b);
  std::error_code ec;
  std::filesystem::remove_all(*a, ec);
  std::filesystem::remove_all(*b, ec);
}

}  // namespace
}  // namespace storage
}  // namespace deepeverest
