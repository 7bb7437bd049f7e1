#include "common/checksum.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "common/checksum_impl.h"
#include "common/rng.h"

namespace turbobp {
namespace {

using Crc32cFn = uint32_t (*)(const void*, size_t, uint32_t);

struct Crc32cPath {
  const char* name;
  Crc32cFn fn;
};

// Every implementation this CPU can run, the public entry point included.
std::vector<Crc32cPath> RunnablePaths() {
  std::vector<Crc32cPath> paths = {{"Crc32c", &Crc32c},
                                   {"bytewise", &detail::Crc32cBytewise}};
#if defined(__x86_64__)
  if (__builtin_cpu_supports("sse4.2")) {
    paths.push_back({"sse4.2", &detail::Crc32cSse42});
  }
#endif
  return paths;
}

std::vector<uint8_t> RandomBytes(Rng& rng, size_t n) {
  std::vector<uint8_t> bytes(n);
  for (auto& b : bytes) b = static_cast<uint8_t>(rng.Next());
  return bytes;
}

// The CPU probe runs once, on whichever thread calls first. This test comes
// first in the file so that, with the binary's tests run in order, these
// threads make the process's first Crc32c calls and race on the probe; all
// must see the same choice (run under TSan in CI).
TEST(Crc32cTest, ConcurrentCallsAgree) {
  Rng rng(17);
  std::vector<std::vector<uint8_t>> buffers;
  std::vector<uint32_t> expected;
  for (int i = 0; i < 64; ++i) {
    buffers.push_back(RandomBytes(rng, rng.Uniform(9001)));
    expected.push_back(
        detail::Crc32cBytewise(buffers.back().data(), buffers.back().size(), 0));
  }
  constexpr int kThreads = 4;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 20; ++round) {
        for (size_t i = 0; i < buffers.size(); ++i) {
          if (Crc32c(buffers[i].data(), buffers[i].size()) != expected[i]) {
            ++mismatches[t];
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0) << t;
}

// RFC 3720 (iSCSI) appendix B.4 vectors, on every path.
TEST(Crc32cTest, KnownVector) {
  // CRC32C of 32 zero bytes.
  std::vector<uint8_t> zeros(32, 0);
  for (const auto& path : RunnablePaths()) {
    EXPECT_EQ(path.fn(zeros.data(), zeros.size(), 0), 0x8A9136AAu)
        << path.name;
  }
}

TEST(Crc32cTest, KnownVectorOnes) {
  std::vector<uint8_t> ones(32, 0xFF);
  for (const auto& path : RunnablePaths()) {
    EXPECT_EQ(path.fn(ones.data(), ones.size(), 0), 0x62A8AB43u) << path.name;
  }
}

TEST(Crc32cTest, KnownVectorAscending) {
  std::vector<uint8_t> asc(32);
  for (int i = 0; i < 32; ++i) asc[i] = static_cast<uint8_t>(i);
  for (const auto& path : RunnablePaths()) {
    EXPECT_EQ(path.fn(asc.data(), asc.size(), 0), 0x46DD794Eu) << path.name;
  }
}

TEST(Crc32cTest, EmptyInput) {
  for (const auto& path : RunnablePaths()) {
    EXPECT_EQ(path.fn(nullptr, 0, 0), 0u) << path.name;
    EXPECT_EQ(path.fn(nullptr, 0, 0xDEADBEEFu), 0xDEADBEEFu) << path.name;
  }
}

TEST(Crc32cTest, SingleBitFlipChangesChecksum) {
  std::string data(100, 'a');
  const uint32_t before = Crc32c(data.data(), data.size());
  data[50] ^= 1;
  EXPECT_NE(before, Crc32c(data.data(), data.size()));
}

TEST(Crc32cTest, Deterministic) {
  std::string data = "turbocharging dbms buffer pool using ssds";
  EXPECT_EQ(Crc32c(data.data(), data.size()),
            Crc32c(data.data(), data.size()));
}

// The public entry point agrees with the reference loop on random lengths
// (0 to 9,000 bytes, past an 8 KiB page), start offsets 0-7 and seeds.
TEST(Crc32cTest, PublicEntryMatchesBytewise) {
  Rng rng(7);
  const std::vector<uint8_t> buf = RandomBytes(rng, 9000 + 8);
  for (int i = 0; i < 2000; ++i) {
    const size_t offset = rng.Uniform(8);
    const size_t n = rng.Uniform(9001);
    const auto seed = i % 4 == 0 ? 0u : static_cast<uint32_t>(rng.Next());
    ASSERT_EQ(Crc32c(buf.data() + offset, n, seed),
              detail::Crc32cBytewise(buf.data() + offset, n, seed))
        << "offset " << offset << " length " << n << " seed " << seed;
  }
}

TEST(Crc32cTest, Sse42KernelMatchesBytewise) {
#if defined(__x86_64__)
  if (!__builtin_cpu_supports("sse4.2")) GTEST_SKIP() << "CPU lacks SSE4.2";
  Rng rng(11);
  const std::vector<uint8_t> buf = RandomBytes(rng, 9000 + 8);
  // Every short length on every offset: each tail length after each word
  // count, including inputs shorter than one word.
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t n = 0; n <= 64; ++n) {
      for (uint32_t seed : {0u, 0xFFFFFFFFu, 0x12345678u}) {
        ASSERT_EQ(detail::Crc32cSse42(buf.data() + offset, n, seed),
                  detail::Crc32cBytewise(buf.data() + offset, n, seed))
            << "offset " << offset << " length " << n << " seed " << seed;
      }
    }
  }
  for (int i = 0; i < 2000; ++i) {
    const size_t offset = rng.Uniform(8);
    const size_t n = rng.Uniform(9001);
    const auto seed = i % 4 == 0 ? 0u : static_cast<uint32_t>(rng.Next());
    ASSERT_EQ(detail::Crc32cSse42(buf.data() + offset, n, seed),
              detail::Crc32cBytewise(buf.data() + offset, n, seed))
        << "offset " << offset << " length " << n << " seed " << seed;
  }
#else
  GTEST_SKIP() << "no SSE4.2 kernel on this architecture";
#endif
}

// Passing one call's result as the next call's seed continues the CRC:
// Crc32c(a || b) == Crc32c(b, Crc32c(a)). Callers (the WAL record header
// then payload) rely on it.
TEST(Crc32cTest, ChainingMatchesOnePass) {
  Rng rng(13);
  const std::vector<uint8_t> buf = RandomBytes(rng, 9000);
  for (const auto& path : RunnablePaths()) {
    for (int i = 0; i < 500; ++i) {
      const size_t n = rng.Uniform(buf.size() + 1);
      const size_t split = rng.Uniform(n + 1);
      const auto seed = static_cast<uint32_t>(rng.Next());
      const uint32_t head = path.fn(buf.data(), split, seed);
      ASSERT_EQ(path.fn(buf.data() + split, n - split, head),
                path.fn(buf.data(), n, seed))
          << path.name << " length " << n << " split " << split;
    }
  }
}

}  // namespace
}  // namespace turbobp
