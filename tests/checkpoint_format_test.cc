// SGQC checkpoint container (model/checkpoint.h, DESIGN.md §7): encoding
// round trips, and — the crash-consistency bar — fault injection. Every
// mutilation of a valid checkpoint (truncation at every byte, a flipped
// bit in any section, version skew, trailing garbage) must be rejected
// with a *positioned* error before any payload is handed out, and every
// write-side failure (ENOSPC, short write) must surface verbatim from
// the injected sink. Also covers the durable-write protocol (temp file +
// fsync + atomic rename leaves the previous good file untouched) and the
// FileByteSink Flush/Sync hardening it rides on.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "common/crc32.h"
#include "model/checkpoint.h"
#include "model/stream_io.h"
#include "test_util.h"

namespace sgq {
namespace {

using testing_util::TempPath;

/// \brief A three-section image with non-trivial payloads (NULs, high
/// bytes) — the fixture every fault-injection test mutates.
std::string SampleImage() {
  CheckpointWriter writer;
  std::string clock;
  PutI64(&clock, -17);
  PutU64(&clock, 42);
  writer.AddSection("clock", clock);
  std::string ops(300, '\0');
  for (std::size_t i = 0; i < ops.size(); ++i) {
    ops[i] = static_cast<char>(i * 7);
  }
  writer.AddSection("ops", ops);
  writer.AddSection("engine", std::string("\xff\x00payload", 9));
  return writer.Encode();
}

// ---------------------------------------------------------------------------
// CRC32
// ---------------------------------------------------------------------------

TEST(Crc32Test, KnownVectors) {
  // The IEEE 802.3 check value: CRC32("123456789") == 0xCBF43926.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
  EXPECT_EQ(Crc32("a"), 0xE8B7BE43u);
}

TEST(Crc32Test, ChunkedMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  const std::uint32_t whole = Crc32(data);
  for (std::size_t split = 0; split <= data.size(); ++split) {
    const std::uint32_t first = Crc32(data.substr(0, split));
    EXPECT_EQ(Crc32(data.substr(split), first), whole) << "split " << split;
  }
}

// Byte-at-a-time reference over the same reflected polynomial: the
// slicing-by-8 Crc32 must reproduce it bit for bit, or SGQC bytes change.
std::uint32_t BytewiseCrc32(const unsigned char* p, std::size_t len,
                            std::uint32_t crc) {
  crc = ~crc;
  for (std::size_t i = 0; i < len; ++i) {
    crc ^= p[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? (0xEDB88320u ^ (crc >> 1)) : (crc >> 1);
    }
  }
  return ~crc;
}

TEST(Crc32Test, MatchesBytewiseReferenceAtEveryLengthAndAlignment) {
  std::vector<unsigned char> buf(1024 + 8);
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (unsigned char& c : buf) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    c = static_cast<unsigned char>(x);
  }
  for (std::size_t align = 0; align < 8; ++align) {
    const unsigned char* p = buf.data() + align;
    for (std::size_t len = 0; len <= 1024; ++len) {
      ASSERT_EQ(Crc32(p, len), BytewiseCrc32(p, len, 0))
          << "align " << align << " len " << len;
    }
  }
  // Chunked continuation: every chunk size, including ones that leave
  // the 8-byte loop mid-stride, composes to the reference.
  const unsigned char* p = buf.data() + 3;
  const std::size_t len = 1021;
  const std::uint32_t want = BytewiseCrc32(p, len, 0);
  for (std::size_t chunk = 1; chunk <= 64; ++chunk) {
    std::uint32_t crc = 0;
    for (std::size_t off = 0; off < len; off += chunk) {
      crc = Crc32(p + off, std::min(chunk, len - off), crc);
    }
    EXPECT_EQ(crc, want) << "chunk " << chunk;
  }
  EXPECT_EQ(Crc32(p, 100, 0xDEADBEEFu), BytewiseCrc32(p, 100, 0xDEADBEEFu));
}

// ---------------------------------------------------------------------------
// Round trip
// ---------------------------------------------------------------------------

TEST(CheckpointFormatTest, EncodeParseRoundTrip) {
  const std::string image = SampleImage();
  auto reader = CheckpointReader::Parse(image, "test");
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ(reader->version(), kCheckpointVersion);
  ASSERT_EQ(reader->sections().size(), 3u);
  EXPECT_EQ(reader->sections()[0].name, "clock");
  EXPECT_EQ(reader->sections()[1].name, "ops");
  EXPECT_EQ(reader->sections()[2].name, "engine");
  EXPECT_EQ(reader->payload(reader->sections()[2]),
            std::string_view("\xff\x00payload", 9));
  EXPECT_EQ(reader->Find("ops")->length, 300u);
  EXPECT_EQ(reader->Find("nope"), nullptr);

  auto clock = reader->Open("clock");
  ASSERT_TRUE(clock.ok());
  EXPECT_EQ(clock->I64(), -17);
  EXPECT_EQ(clock->U64(), 42u);
  EXPECT_TRUE(clock->ExpectEnd().ok());
  EXPECT_FALSE(reader->Open("nope").ok());
}

TEST(CheckpointFormatTest, EmptyImageParses) {
  CheckpointWriter writer;
  auto reader = CheckpointReader::Parse(writer.Encode(), "empty");
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_TRUE(reader->sections().empty());
}

TEST(CheckpointFormatTest, EncodingIsDeterministic) {
  EXPECT_EQ(SampleImage(), SampleImage());
}

// ---------------------------------------------------------------------------
// Fault injection: every bad image rejected, always with a position
// ---------------------------------------------------------------------------

TEST(CheckpointFaultTest, TruncationAtEveryByteRejected) {
  const std::string image = SampleImage();
  for (std::size_t len = 0; len < image.size(); ++len) {
    auto reader = CheckpointReader::Parse(image.substr(0, len), "trunc");
    ASSERT_FALSE(reader.ok()) << "truncated to " << len << " bytes parsed";
    EXPECT_NE(reader.status().message().find("trunc"), std::string::npos)
        << reader.status().ToString();
  }
}

TEST(CheckpointFaultTest, SingleBitFlipAnywhereRejected) {
  const std::string image = SampleImage();
  for (std::size_t i = 0; i < image.size(); ++i) {
    std::string bad = image;
    bad[i] = static_cast<char>(bad[i] ^ 0x10);
    auto reader = CheckpointReader::Parse(std::move(bad), "flip");
    EXPECT_FALSE(reader.ok()) << "bit flip at byte " << i << " parsed";
  }
}

TEST(CheckpointFaultTest, ErrorsCarryByteOffsets) {
  std::string bad = SampleImage();
  bad[bad.size() / 2] = static_cast<char>(bad[bad.size() / 2] ^ 0x01);
  auto reader = CheckpointReader::Parse(std::move(bad), "positioned");
  ASSERT_FALSE(reader.ok());
  // The message must localize the damage: context plus an offset.
  EXPECT_NE(reader.status().message().find("positioned"), std::string::npos)
      << reader.status().ToString();
  EXPECT_NE(reader.status().message().find("offset"), std::string::npos)
      << reader.status().ToString();
}

TEST(CheckpointFaultTest, VersionSkewRejected) {
  std::string image = SampleImage();
  // Patch the version field (offset 4) and repair the whole-file CRC so
  // the *version check* does the rejecting, not the integrity check.
  image[4] = static_cast<char>(kCheckpointVersion + 1);
  const std::uint32_t crc = Crc32(image.data(), image.size() - 4);
  for (int i = 0; i < 4; ++i) {
    image[image.size() - 4 + i] = static_cast<char>((crc >> (8 * i)) & 0xff);
  }
  auto reader = CheckpointReader::Parse(std::move(image), "skew");
  ASSERT_FALSE(reader.ok());
  EXPECT_NE(reader.status().message().find("version"), std::string::npos)
      << reader.status().ToString();
}

TEST(CheckpointFaultTest, TrailingGarbageRejected) {
  auto reader =
      CheckpointReader::Parse(SampleImage() + "extra", "trailing");
  EXPECT_FALSE(reader.ok());
}

TEST(CheckpointFaultTest, WrongMagicRejected) {
  std::string image = SampleImage();
  image[0] = 'X';
  EXPECT_FALSE(CheckpointReader::Parse(std::move(image), "magic").ok());
}

// ---------------------------------------------------------------------------
// ByteReader discipline
// ---------------------------------------------------------------------------

TEST(ByteReaderTest, StickyErrorAndPosition) {
  std::string payload;
  PutU32(&payload, 7);
  ByteReader in(payload, "sticky");
  EXPECT_EQ(in.U32(), 7u);
  EXPECT_EQ(in.U64(), 0u);  // past the end: zero, error sticks
  EXPECT_FALSE(in.ok());
  EXPECT_EQ(in.U8(), 0u);  // still stuck
  EXPECT_NE(in.status().message().find("sticky"), std::string::npos);
}

TEST(ByteReaderTest, ExpectEndRejectsTrailingBytes) {
  std::string payload;
  PutU32(&payload, 1);
  PutU8(&payload, 2);
  ByteReader in(payload, "tail");
  EXPECT_EQ(in.U32(), 1u);
  EXPECT_FALSE(in.ExpectEnd().ok());
}

TEST(ByteReaderTest, SgeSgtCodecsRoundTrip) {
  Sge e{3, 9, 2, 44, /*del=*/true};
  Sgt t(5, 6, 1, Interval(10, 70), Payload{EdgeRef{5, 7, 1},
                                           EdgeRef{7, 6, 1}},
        /*del=*/false);
  std::string payload;
  PutSge(&payload, e);
  PutSgt(&payload, t);
  ByteReader in(payload, "codec");
  const Sge e2 = GetSge(&in);
  const Sgt t2 = GetSgt(&in);
  ASSERT_TRUE(in.ExpectEnd().ok()) << in.status().ToString();
  EXPECT_EQ(e2.src, e.src);
  EXPECT_EQ(e2.trg, e.trg);
  EXPECT_EQ(e2.label, e.label);
  EXPECT_EQ(e2.t, e.t);
  EXPECT_EQ(e2.is_deletion, e.is_deletion);
  EXPECT_EQ(t2.src, t.src);
  EXPECT_EQ(t2.trg, t.trg);
  EXPECT_EQ(t2.validity.ts, t.validity.ts);
  EXPECT_EQ(t2.validity.exp, t.validity.exp);
  ASSERT_EQ(t2.payload.size(), 2u);
  EXPECT_EQ(t2.payload[1].src, 7u);
}

// ---------------------------------------------------------------------------
// Write-side fault injection
// ---------------------------------------------------------------------------

/// \brief ByteSink that fails after accepting `budget` bytes — ENOSPC /
/// short-write at an arbitrary byte, injected deterministically.
class FailingByteSink : public ByteSink {
 public:
  explicit FailingByteSink(std::size_t budget) : budget_(budget) {}

  Status Append(std::string_view bytes) override {
    if (accepted_ + bytes.size() > budget_) {
      return Status::Internal("injected: no space left on device");
    }
    accepted_ += bytes.size();
    return Status::OK();
  }
  Status Close() override { return Status::OK(); }

 private:
  std::size_t budget_;
  std::size_t accepted_ = 0;
};

TEST(CheckpointWriteTest, SinkFailureAtEveryBudgetSurfaces) {
  CheckpointWriter writer;
  writer.AddSection("clock", "0123456789");
  writer.AddSection("ops", std::string(100, 'z'));
  const std::string image = writer.Encode();
  for (std::size_t budget = 0; budget < image.size(); budget += 7) {
    FailingByteSink sink(budget);
    Status st = writer.WriteTo(&sink);
    ASSERT_FALSE(st.ok()) << "budget " << budget << " succeeded";
    EXPECT_NE(st.message().find("no space left"), std::string::npos);
  }
  StringByteSink ok_sink;
  ASSERT_TRUE(writer.WriteTo(&ok_sink).ok());
  EXPECT_EQ(ok_sink.bytes(), image);
}

TEST(CheckpointWriteTest, DurableWriteIsAtomicOverPreviousFile) {
  const std::string path = TempPath("ckpt_atomic.sgqc");
  CheckpointWriter first;
  first.AddSection("clock", "first");
  ASSERT_TRUE(first.WriteFile(path).ok());
  auto parsed = CheckpointReader::ParseFile(path);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();

  // Overwrite through the same protocol: the new image replaces the old
  // atomically and no ".tmp" residue survives a successful write.
  CheckpointWriter second;
  second.AddSection("clock", "second, longer than the first payload");
  ASSERT_TRUE(second.WriteFile(path).ok());
  auto reparsed = CheckpointReader::ParseFile(path);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(reparsed->payload(reparsed->sections()[0]),
            "second, longer than the first payload");
  EXPECT_FALSE(ReadFileBytes(path + ".tmp").ok());
  std::remove(path.c_str());
}

TEST(CheckpointWriteTest, UnwritableDirectoryFailsWithErrnoText) {
  CheckpointWriter writer;
  writer.AddSection("clock", "x");
  Status st = writer.WriteFile(TempPath("no/such/dir/ckpt.sgqc"));
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("No such file"), std::string::npos)
      << st.ToString();
}

// ---------------------------------------------------------------------------
// FileByteSink hardening (satellite: Flush/Sync + injected failures)
// ---------------------------------------------------------------------------

TEST(FileByteSinkTest, FlushAndSyncMakeBytesVisible) {
  const std::string path = TempPath("sink_sync.bin");
  FileByteSink sink(path);
  ASSERT_TRUE(sink.Append("durable").ok());
  ASSERT_TRUE(sink.Flush().ok());
  ASSERT_TRUE(sink.Sync().ok()) << sink.status().ToString();
  // Sync() forces the staged tail through the stdio buffer: the bytes
  // must be readable *before* Close().
  auto visible = ReadFileBytes(path);
  ASSERT_TRUE(visible.ok());
  EXPECT_EQ(*visible, "durable");
  ASSERT_TRUE(sink.Close().ok());
  std::remove(path.c_str());
}

TEST(FileByteSinkTest, SyncAfterOpenFailureSticks) {
  FileByteSink sink(TempPath("no/such/dir/out.bin"));
  EXPECT_FALSE(sink.Append("x").ok());
  EXPECT_FALSE(sink.Flush().ok());
  EXPECT_FALSE(sink.Sync().ok());
  // The sticky error carries the errno text and the path.
  EXPECT_NE(sink.status().message().find("No such file"),
            std::string::npos)
      << sink.status().ToString();
}

}  // namespace
}  // namespace sgq
