// FrameDecoder: newline and length-prefix framing over arbitrary
// segment boundaries -- partial frames, coalesced frames, CRLF,
// oversized handling, EOF tails.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "net/framing.hpp"

namespace wss::net {
namespace {

std::vector<std::string> drain(FrameDecoder& d) {
  std::vector<std::string> frames;
  std::string f;
  while (d.next(f)) frames.push_back(f);
  return frames;
}

std::string be32(std::uint32_t v) {
  std::string s;
  s.push_back(static_cast<char>((v >> 24) & 0xff));
  s.push_back(static_cast<char>((v >> 16) & 0xff));
  s.push_back(static_cast<char>((v >> 8) & 0xff));
  s.push_back(static_cast<char>(v & 0xff));
  return s;
}

TEST(NetFraming, CoalescedNewlineFrames) {
  FrameDecoder d(Framing::kNewline);
  d.feed("alpha\nbeta\ngamma\n");
  EXPECT_EQ(drain(d), (std::vector<std::string>{"alpha", "beta", "gamma"}));
  EXPECT_EQ(d.buffered(), 0u);
}

TEST(NetFraming, PartialFrameAcrossManyFeeds) {
  FrameDecoder d(Framing::kNewline);
  const std::string line = "one long syslog line with fields";
  for (const char c : line) {
    d.feed(std::string_view(&c, 1));
    std::string f;
    EXPECT_FALSE(d.next(f));
  }
  d.feed("\n");
  EXPECT_EQ(drain(d), std::vector<std::string>{line});
}

TEST(NetFraming, StripsSingleTrailingCarriageReturn) {
  FrameDecoder d(Framing::kNewline);
  d.feed("crlf line\r\nbare cr \r\r\n");
  EXPECT_EQ(drain(d),
            (std::vector<std::string>{"crlf line", "bare cr \r"}));
}

TEST(NetFraming, EmptyLinesAreFrames) {
  FrameDecoder d(Framing::kNewline);
  d.feed("\n\nx\n");
  EXPECT_EQ(drain(d), (std::vector<std::string>{"", "", "x"}));
}

TEST(NetFraming, FinishFlushesUnterminatedTail) {
  FrameDecoder d(Framing::kNewline);
  d.feed("done\npartial tail");
  EXPECT_EQ(drain(d), std::vector<std::string>{"done"});
  std::string f;
  ASSERT_TRUE(d.finish(f));
  EXPECT_EQ(f, "partial tail");
  EXPECT_FALSE(d.finish(f));  // flushed once
}

// A tail of exactly "\r" strips to an empty line and is delivered,
// like "\r\n" mid-stream: every CR-terminated input keeps its line
// count.
TEST(NetFraming, LoneCarriageReturnTailIsAnEmptyLine) {
  FrameDecoder d(Framing::kNewline);
  d.feed("a\r\n\r\n\r");
  EXPECT_EQ(drain(d), (std::vector<std::string>{"a", ""}));
  std::string f = "stale";
  ASSERT_TRUE(d.finish(f));
  EXPECT_EQ(f, "");
  EXPECT_FALSE(d.finish(f));
}

TEST(NetFraming, FinishOnCleanStreamIsEmpty) {
  FrameDecoder d(Framing::kNewline);
  d.feed("done\n");
  drain(d);
  std::string f;
  EXPECT_FALSE(d.finish(f));
}

TEST(NetFraming, OversizedNewlineLineIsCountedNotDelivered) {
  FrameDecoder d(Framing::kNewline, 8);
  d.feed("tiny\n");
  d.feed(std::string(100, 'x'));  // exceeds cap mid-line
  d.feed("yyy\nafter\n");
  EXPECT_EQ(drain(d), (std::vector<std::string>{"tiny", "after"}));
  EXPECT_EQ(d.oversized(), 1u);
  EXPECT_FALSE(d.error());  // newline mode re-synchronizes
}

TEST(NetFraming, OversizedCompleteLineInOneFeed) {
  FrameDecoder d(Framing::kNewline, 8);
  d.feed(std::string(20, 'a') + "\nok\n");
  EXPECT_EQ(drain(d), std::vector<std::string>{"ok"});
  EXPECT_EQ(d.oversized(), 1u);
}

TEST(NetFraming, OversizedTailAtEof) {
  FrameDecoder d(Framing::kNewline, 8);
  d.feed(std::string(20, 'b'));
  drain(d);
  std::string f;
  EXPECT_FALSE(d.finish(f));
  EXPECT_EQ(d.oversized(), 1u);
}

TEST(NetFraming, LenPrefixRoundTrip) {
  using namespace std::string_literals;
  FrameDecoder d(Framing::kLenPrefix);
  const std::string payload = "binary \n payload \0 with newline"s;
  d.feed(be32(static_cast<std::uint32_t>(payload.size())) + payload);
  d.feed(be32(0));  // empty frame
  std::string f;
  ASSERT_TRUE(d.next(f));
  EXPECT_EQ(f, payload);
  ASSERT_TRUE(d.next(f));
  EXPECT_EQ(f, "");
  EXPECT_FALSE(d.next(f));
}

TEST(NetFraming, LenPrefixSplitAcrossFeeds) {
  FrameDecoder d(Framing::kLenPrefix);
  const std::string msg = be32(5) + "hello" + be32(5) + "world";
  for (const char c : msg) d.feed(std::string_view(&c, 1));
  EXPECT_EQ(drain(d), (std::vector<std::string>{"hello", "world"}));
}

TEST(NetFraming, LenPrefixOverflowIsUnrecoverable) {
  FrameDecoder d(Framing::kLenPrefix, 16);
  d.feed(be32(1u << 30));
  std::string f;
  EXPECT_FALSE(d.next(f));
  EXPECT_TRUE(d.error());
  EXPECT_EQ(d.oversized(), 1u);
  d.feed(be32(3) + "abc");  // too late: the stream position is lost
  EXPECT_FALSE(d.next(f));
  EXPECT_FALSE(d.finish(f));
}

TEST(NetFraming, TakeRestHandsOffUndecodedBytes) {
  FrameDecoder d(Framing::kNewline);
  d.feed("handshake line\n" + be32(2) + "ok");
  std::string f;
  ASSERT_TRUE(d.next(f));
  EXPECT_EQ(f, "handshake line");
  FrameDecoder len(Framing::kLenPrefix);
  len.feed(d.take_rest());
  EXPECT_EQ(d.buffered(), 0u);
  ASSERT_TRUE(len.next(f));
  EXPECT_EQ(f, "ok");
}

TEST(NetFraming, CompactionKeepsLongStreamsBounded) {
  FrameDecoder d(Framing::kNewline);
  std::string f;
  for (int i = 0; i < 20000; ++i) {
    d.feed("some log line payload\n");
    ASSERT_TRUE(d.next(f));
    ASSERT_FALSE(d.next(f));
    ASSERT_LT(d.buffered(), 16u * 1024u);
  }
}

// Regression: a length-prefix header whose 4 bytes straddle the
// ring's wrap point must decode exactly like a contiguous header. The
// initial ring is 4096 bytes; a first frame of 4090 payload bytes
// parks the write head 2 bytes below the top, so the next header's
// bytes land [4094, 4095, 0, 1] -- split around the wrap. Every split
// of the header across feeds is exercised.
TEST(NetFraming, LenPrefixHeaderStraddlingRingWrap) {
  const std::string first(4090, 'a');
  std::string second;
  for (int i = 0; i < 300; ++i) second.push_back(static_cast<char>(i & 0xff));
  for (std::size_t split = 0; split <= 4; ++split) {
    FrameDecoder d(Framing::kLenPrefix);
    d.feed(be32(static_cast<std::uint32_t>(first.size())) + first);
    std::string f;
    ASSERT_TRUE(d.next(f));
    ASSERT_EQ(f, first);
    const std::string header = be32(static_cast<std::uint32_t>(second.size()));
    d.feed(std::string_view(header).substr(0, split));
    EXPECT_FALSE(d.next(f));
    d.feed(std::string_view(header).substr(split));
    d.feed(second);
    ASSERT_TRUE(d.next(f)) << "split=" << split;
    EXPECT_EQ(f, second) << "split=" << split;
    EXPECT_FALSE(d.next(f));
    EXPECT_FALSE(d.error());
  }
}

// Newline frames whose payload wraps the ring: drive the write head
// near the top, then feed lines long enough to wrap, in 1-byte feeds.
TEST(NetFraming, NewlinePayloadStraddlingRingWrap) {
  FrameDecoder d(Framing::kNewline);
  std::string f;
  // Park the head near the top of the initial 4096-byte ring.
  d.feed(std::string(4000, 'p') + "\n");
  ASSERT_TRUE(d.next(f));
  // This line occupies [4001..4095] and wraps into [0..].
  std::string wrapping(200, 'w');
  wrapping[95] = '!';  // lands exactly at the wrap byte
  for (const char c : wrapping) {
    d.feed(std::string_view(&c, 1));
    ASSERT_FALSE(d.next(f));
  }
  d.feed("\n");
  ASSERT_TRUE(d.next(f));
  EXPECT_EQ(f, wrapping);
}

// Differential: any segmentation of any byte stream decodes to the
// same frames as feeding it whole, in both modes. Covers ring growth,
// wrap at every offset, CR/LF, embedded NULs, empty frames.
TEST(NetFraming, SegmentationInvariance) {
  using namespace std::string_literals;
  std::string newline_stream;
  for (int i = 0; i < 300; ++i) {
    newline_stream += "line " + std::to_string(i);
    if (i % 7 == 0) newline_stream += "\r";
    newline_stream += "\n";
    if (i % 13 == 0) newline_stream += "\n";  // empty frames
  }
  newline_stream += std::string(5000, 'Z') + "\n";  // forces ring growth
  std::string len_stream;
  for (int i = 0; i < 300; ++i) {
    std::string payload = "payload\0with nul "s + std::to_string(i);
    payload.append(static_cast<std::size_t>(i) % 97, '#');
    len_stream += be32(static_cast<std::uint32_t>(payload.size())) + payload;
  }

  const auto decode = [](Framing mode, std::string_view stream,
                         std::size_t seg) {
    FrameDecoder d(mode);
    std::vector<std::string> frames;
    std::string f;
    for (std::size_t pos = 0; pos < stream.size(); pos += seg) {
      d.feed(stream.substr(pos, seg));
      while (d.next(f)) frames.push_back(f);
    }
    if (mode == Framing::kNewline && d.finish(f)) frames.push_back(f);
    EXPECT_FALSE(d.error());
    return frames;
  };

  for (const Framing mode : {Framing::kNewline, Framing::kLenPrefix}) {
    const std::string_view stream =
        mode == Framing::kNewline ? newline_stream : len_stream;
    const auto whole = decode(mode, stream, stream.size());
    ASSERT_GE(whole.size(), 300u);
    for (const std::size_t seg : {std::size_t{1}, std::size_t{2},
                                  std::size_t{3}, std::size_t{7},
                                  std::size_t{4095}, std::size_t{4096}}) {
      EXPECT_EQ(decode(mode, stream, seg), whole) << "seg=" << seg;
    }
  }
}

// The scanned_ cursor: a very long line arriving in many segments must
// not be re-scanned per segment. 2MiB in 1KiB feeds completes fast
// only if the scan is O(total); quadratic would be ~4M vector scans of
// 1MiB average. Checked by wall-clock-free proxy: the test simply
// completes within CTest's default timeout even under sanitizers.
TEST(NetFraming, LongPartialLineScansLinearly) {
  FrameDecoder d(Framing::kNewline, 4u << 20);
  const std::string chunk(1024, 'x');
  std::string f;
  for (int i = 0; i < 2048; ++i) {
    d.feed(chunk);
    ASSERT_FALSE(d.next(f));
  }
  d.feed("\n");
  ASSERT_TRUE(d.next(f));
  EXPECT_EQ(f.size(), 2048u * 1024u);
}

}  // namespace
}  // namespace wss::net
