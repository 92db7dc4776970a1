/**
 * @file
 * Randomized FrameParser soak: thousands of seeded trials feed the
 * parser streams that have been bit-flipped, truncated, duplicated
 * and re-chunked at random. The invariants under attack:
 *
 *  - the parser NEVER crashes, hangs or over-reads, whatever the
 *    bytes (every trial finishing is the assertion);
 *  - a clean stream survives any chunking, yielding exactly the
 *    frames sent;
 *  - corruption is sticky: once corrupt(), no frame is ever yielded
 *    again, and the reason is non-empty;
 *  - truncation is benign: a clean prefix parses, the torn tail
 *    yields nothing and is NOT flagged corrupt (more bytes may come);
 *  - every frame the parser does yield from a corrupted stream is
 *    internally consistent (version, magic and payload CRC all
 *    checked), and frames yielded BEFORE the first flipped byte
 *    match the sent prefix exactly.
 *
 * Seeded xorshift RNG: every trial is reproducible from its printed
 * seed.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "campaign/wire.hpp"
#include "sim/rng.hpp"

namespace ckesim {
namespace {

/** A batch of valid frames with assorted types/payload sizes. */
std::vector<Frame>
makeFrames(Rng &rng, std::size_t count)
{
    static const FrameType kTypes[] = {
        FrameType::Dispatch,
        FrameType::Result,       FrameType::JobError,
        FrameType::Heartbeat,    FrameType::Shutdown,
        FrameType::SubmitCampaign, FrameType::SubmitAck,
        FrameType::JobResult,    FrameType::JobFailed,
        FrameType::CampaignDone, FrameType::Reject,
        FrameType::Ping,         FrameType::Pong,
    };
    std::vector<Frame> frames;
    for (std::size_t i = 0; i < count; ++i) {
        Frame f;
        f.type = kTypes[rng.nextBelow(
            sizeof kTypes / sizeof kTypes[0])];
        f.job_index = static_cast<std::uint32_t>(rng.next());
        f.aux = static_cast<std::uint32_t>(rng.next());
        f.key = rng.next();
        const std::size_t len = rng.nextBelow(200);
        for (std::size_t b = 0; b < len; ++b)
            f.payload.push_back(
                static_cast<std::uint8_t>(rng.next()));
        frames.push_back(std::move(f));
    }
    return frames;
}

std::vector<std::uint8_t>
serialize(const std::vector<Frame> &frames)
{
    std::vector<std::uint8_t> stream;
    for (const Frame &f : frames) {
        const auto bytes = encodeFrame(f);
        stream.insert(stream.end(), bytes.begin(), bytes.end());
    }
    return stream;
}

/** Feed @p stream in random chunks; collect yields. */
std::vector<Frame>
feedChunked(FrameParser &parser, Rng &rng,
            const std::vector<std::uint8_t> &stream)
{
    std::vector<Frame> got;
    std::size_t pos = 0;
    Frame out;
    while (pos < stream.size()) {
        const std::size_t chunk = 1 + static_cast<std::size_t>(
                                          rng.nextBelow(97));
        const std::size_t n =
            std::min(chunk, stream.size() - pos);
        parser.feed(stream.data() + pos, n);
        pos += n;
        while (parser.next(out))
            got.push_back(out);
    }
    return got;
}

bool
framesEqual(const Frame &a, const Frame &b)
{
    return a.type == b.type && a.job_index == b.job_index &&
           a.aux == b.aux && a.key == b.key &&
           a.payload == b.payload;
}

TEST(WireSoak, CleanStreamsSurviveRandomChunking)
{
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
        Rng rng(seed);
        const std::vector<Frame> sent =
            makeFrames(rng, 1 + rng.nextBelow(12));
        FrameParser parser;
        const std::vector<Frame> got =
            feedChunked(parser, rng, serialize(sent));
        ASSERT_FALSE(parser.corrupt())
            << "seed " << seed << ": " << parser.corruptReason();
        ASSERT_EQ(got.size(), sent.size()) << "seed " << seed;
        for (std::size_t i = 0; i < sent.size(); ++i)
            EXPECT_TRUE(framesEqual(got[i], sent[i]))
                << "seed " << seed << " frame " << i;
    }
}

TEST(WireSoak, RandomBitFlipsNeverCrashAndCorruptionIsSticky)
{
    for (std::uint64_t seed = 1; seed <= 500; ++seed) {
        Rng rng(seed);
        const std::vector<Frame> sent =
            makeFrames(rng, 1 + rng.nextBelow(10));
        std::vector<std::uint8_t> stream = serialize(sent);
        const std::size_t flip_at = rng.nextBelow(stream.size());
        const std::uint8_t mask = static_cast<std::uint8_t>(
            1u << rng.nextBelow(8));
        stream[flip_at] ^= mask;

        FrameParser parser;
        const std::vector<Frame> got =
            feedChunked(parser, rng, stream);

        // Frames fully delivered before the flipped byte must come
        // out untouched, in order.
        std::size_t clean_prefix = 0;
        std::size_t offset = 0;
        for (const Frame &f : sent) {
            offset += kFrameHeaderBytes + f.payload.size();
            if (offset <= flip_at)
                ++clean_prefix;
            else
                break;
        }
        ASSERT_GE(got.size(), clean_prefix) << "seed " << seed;
        for (std::size_t i = 0; i < clean_prefix; ++i)
            EXPECT_TRUE(framesEqual(got[i], sent[i]))
                << "seed " << seed << " frame " << i;

        if (parser.corrupt()) {
            EXPECT_FALSE(parser.corruptReason().empty())
                << "seed " << seed;
            // Sticky: more bytes (even a whole valid frame) yield
            // nothing once the stream is declared corrupt.
            const auto more = serialize(makeFrames(rng, 1));
            parser.feed(more.data(), more.size());
            Frame out;
            EXPECT_FALSE(parser.next(out)) << "seed " << seed;
            EXPECT_TRUE(parser.corrupt()) << "seed " << seed;
        }
    }
}

TEST(WireSoak, TruncationIsBenignNotCorrupt)
{
    for (std::uint64_t seed = 1; seed <= 300; ++seed) {
        Rng rng(seed);
        const std::vector<Frame> sent = makeFrames(rng, 4);
        std::vector<std::uint8_t> stream = serialize(sent);
        // Cut mid-way through the final frame.
        const std::size_t tail =
            kFrameHeaderBytes + sent.back().payload.size();
        const std::size_t cut = stream.size() - 1 -
                                rng.nextBelow(tail - 1);
        stream.resize(cut);

        FrameParser parser;
        const std::vector<Frame> got =
            feedChunked(parser, rng, stream);
        EXPECT_FALSE(parser.corrupt())
            << "seed " << seed
            << ": a torn tail is incomplete, not corrupt";
        EXPECT_EQ(got.size(), sent.size() - 1) << "seed " << seed;
    }
}

TEST(WireSoak, DuplicatedFramesParseAsDuplicates)
{
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
        Rng rng(seed);
        std::vector<Frame> sent = makeFrames(rng, 3);
        // Duplicate one frame somewhere in the stream — networks
        // don't do this, but retry bugs do.
        const std::size_t dup = rng.nextBelow(sent.size());
        sent.insert(
            sent.begin() +
                static_cast<std::ptrdiff_t>(
                    rng.nextBelow(sent.size() + 1)),
            sent[dup]);

        FrameParser parser;
        const std::vector<Frame> got =
            feedChunked(parser, rng, serialize(sent));
        ASSERT_FALSE(parser.corrupt())
            << "seed " << seed << ": " << parser.corruptReason();
        ASSERT_EQ(got.size(), sent.size()) << "seed " << seed;
        for (std::size_t i = 0; i < sent.size(); ++i)
            EXPECT_TRUE(framesEqual(got[i], sent[i]))
                << "seed " << seed;
    }
}

TEST(WireSoak, PureGarbageNeverCrashes)
{
    for (std::uint64_t seed = 1; seed <= 300; ++seed) {
        Rng rng(seed);
        std::vector<std::uint8_t> garbage(
            64 + rng.nextBelow(4096));
        for (std::uint8_t &b : garbage)
            b = static_cast<std::uint8_t>(rng.next());
        FrameParser parser;
        const std::vector<Frame> got =
            feedChunked(parser, rng, garbage);
        // Any frame that does come out of garbage passed magic,
        // version and CRC checks — astronomically unlikely, but if
        // it happens it must at least be well-formed.
        for (const Frame &f : got)
            EXPECT_LE(f.payload.size(), garbage.size());
    }
}

} // namespace
} // namespace ckesim
