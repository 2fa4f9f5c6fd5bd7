#include "common/serde.h"

#include <gtest/gtest.h>

namespace deepeverest {
namespace {

TEST(SerdeTest, PrimitiveRoundTrip) {
  BinaryWriter writer;
  writer.WriteU8(0xAB);
  writer.WriteU32(0xDEADBEEF);
  writer.WriteU64(0x0123456789ABCDEFull);
  writer.WriteI32(-42);
  writer.WriteI64(-1234567890123ll);
  writer.WriteF32(3.5f);
  writer.WriteF64(-2.25);

  BinaryReader reader(writer.buffer());
  uint8_t u8;
  uint32_t u32;
  uint64_t u64;
  int32_t i32;
  int64_t i64;
  float f32;
  double f64;
  ASSERT_TRUE(reader.ReadU8(&u8).ok());
  ASSERT_TRUE(reader.ReadU32(&u32).ok());
  ASSERT_TRUE(reader.ReadU64(&u64).ok());
  ASSERT_TRUE(reader.ReadI32(&i32).ok());
  ASSERT_TRUE(reader.ReadI64(&i64).ok());
  ASSERT_TRUE(reader.ReadF32(&f32).ok());
  ASSERT_TRUE(reader.ReadF64(&f64).ok());
  EXPECT_EQ(u8, 0xAB);
  EXPECT_EQ(u32, 0xDEADBEEF);
  EXPECT_EQ(u64, 0x0123456789ABCDEFull);
  EXPECT_EQ(i32, -42);
  EXPECT_EQ(i64, -1234567890123ll);
  EXPECT_EQ(f32, 3.5f);
  EXPECT_EQ(f64, -2.25);
  EXPECT_TRUE(reader.AtEnd());
}

TEST(SerdeTest, StringAndVectors) {
  BinaryWriter writer;
  writer.WriteString("deepeverest");
  writer.WriteF32Vector({1.0f, -2.0f, 0.5f});
  writer.WriteU32Vector({7, 8, 9});
  writer.WriteU64Vector({});

  BinaryReader reader(writer.buffer());
  std::string s;
  std::vector<float> f;
  std::vector<uint32_t> u32s;
  std::vector<uint64_t> u64s;
  ASSERT_TRUE(reader.ReadString(&s).ok());
  ASSERT_TRUE(reader.ReadF32Vector(&f).ok());
  ASSERT_TRUE(reader.ReadU32Vector(&u32s).ok());
  ASSERT_TRUE(reader.ReadU64Vector(&u64s).ok());
  EXPECT_EQ(s, "deepeverest");
  EXPECT_EQ(f, (std::vector<float>{1.0f, -2.0f, 0.5f}));
  EXPECT_EQ(u32s, (std::vector<uint32_t>{7, 8, 9}));
  EXPECT_TRUE(u64s.empty());
}

TEST(SerdeTest, EmptyVectorsRoundTrip) {
  BinaryWriter writer;
  writer.WriteF32Vector({});
  writer.WriteU32Vector({});
  writer.WriteU64Vector({});
  writer.WriteU32(7);

  BinaryReader reader(writer.buffer());
  std::vector<float> f32s = {1.0f};
  std::vector<uint32_t> u32s = {1u};
  std::vector<uint64_t> u64s = {1u};
  uint32_t tail = 0;
  ASSERT_TRUE(reader.ReadF32Vector(&f32s).ok());
  ASSERT_TRUE(reader.ReadU32Vector(&u32s).ok());
  ASSERT_TRUE(reader.ReadU64Vector(&u64s).ok());
  ASSERT_TRUE(reader.ReadU32(&tail).ok());
  EXPECT_TRUE(f32s.empty());
  EXPECT_TRUE(u32s.empty());
  EXPECT_TRUE(u64s.empty());
  EXPECT_EQ(tail, 7u);
  EXPECT_TRUE(reader.AtEnd());
}

TEST(SerdeTest, TruncatedBufferIsIOError) {
  BinaryWriter writer;
  writer.WriteU64(1);
  BinaryReader reader(writer.buffer().data(), 4);  // only half the u64
  uint64_t v;
  EXPECT_TRUE(reader.ReadU64(&v).IsIOError());
}

TEST(SerdeTest, CorruptLengthPrefixIsIOError) {
  // A length prefix claiming more elements than the buffer can hold must be
  // rejected rather than causing a huge allocation.
  BinaryWriter writer;
  writer.WriteU64(1ull << 40);  // bogus element count
  writer.WriteU32(0);
  BinaryReader reader(writer.buffer());
  std::vector<float> f;
  EXPECT_TRUE(reader.ReadF32Vector(&f).IsIOError());
}

TEST(SerdeTest, EmptyBufferAtEnd) {
  BinaryReader reader(nullptr, 0);
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_EQ(reader.remaining(), 0u);
  uint8_t v;
  EXPECT_TRUE(reader.ReadU8(&v).IsIOError());
}

}  // namespace
}  // namespace deepeverest
