#include "persist/format.h"

#include <array>

#include "common/serde.h"

namespace deepeverest {
namespace persist {

namespace {

std::array<uint32_t, 256> MakeCrcTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
    }
    table[i] = c;
  }
  return table;
}

}  // namespace

uint32_t Crc32(const uint8_t* data, size_t size, uint32_t seed) {
  static const std::array<uint32_t, 256> table = MakeCrcTable();
  uint32_t crc = seed ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ data[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

std::vector<uint8_t> WrapChecksum(const std::vector<uint8_t>& payload,
                                  uint32_t* crc) {
  const uint32_t checksum = Crc32(payload);
  if (crc != nullptr) *crc = checksum;
  BinaryWriter writer;
  writer.WriteU32(kEnvelopeMagic);
  writer.WriteU64(payload.size());
  writer.WriteU32(checksum);
  std::vector<uint8_t> out = writer.TakeBuffer();
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

Result<std::vector<uint8_t>> UnwrapChecksum(const std::vector<uint8_t>& blob,
                                            const std::string& what,
                                            uint32_t* crc_out) {
  BinaryReader reader(blob);
  uint32_t magic = 0;
  uint64_t payload_size = 0;
  uint32_t crc = 0;
  if (!reader.ReadU32(&magic).ok() || magic != kEnvelopeMagic) {
    return Status::IOError(what + ": bad envelope magic (not written by this "
                           "version, or corrupt)");
  }
  DE_RETURN_NOT_OK(reader.ReadU64(&payload_size));
  DE_RETURN_NOT_OK(reader.ReadU32(&crc));
  if (reader.remaining() < payload_size) {
    return Status::IOError(what + ": truncated (" +
                           std::to_string(reader.remaining()) + " of " +
                           std::to_string(payload_size) + " payload bytes)");
  }
  std::vector<uint8_t> payload(blob.end() - reader.remaining(),
                               blob.end() - reader.remaining() +
                                   static_cast<ptrdiff_t>(payload_size));
  const uint32_t actual = Crc32(payload);
  if (actual != crc) {
    return Status::IOError(what + ": checksum mismatch (stored " +
                           std::to_string(crc) + ", computed " +
                           std::to_string(actual) + ")");
  }
  if (crc_out != nullptr) *crc_out = crc;
  return payload;
}

}  // namespace persist
}  // namespace deepeverest
