// Hash-path microbenchmark: single-lane hash_words vs. the multi-lane
// batched hash_words_lanes (the compiled executor's hash phase), across
// key widths and burst sizes.
//
// Single-lane CRC is latency-bound: each word's slicing-by-4 lookup chains
// through the previous word's accumulator, so the load ports sit idle.
// The lanes path interleaves four independent accumulator chains, turning
// the same table lookups into parallel streams.  The ratio printed here is
// the raw memory-level-parallelism headroom the executor's burst schedule
// taps; docs/compile.md records how much of it survives end to end.
//
//   bench_hash [--reps N]    hash calls per measurement (default sized so
//                            a full run takes a few seconds)
//
// Writes BENCH_hash.json in the working directory.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <vector>

#include "bench_util.h"
#include "sketch/hash.h"

namespace newton {
namespace {

uint64_t now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

uint32_t mix(uint32_t x) {
  x ^= x >> 16;
  x *= 0x7feb352du;
  x ^= x >> 15;
  x *= 0x846ca68bu;
  x ^= x >> 16;
  return x;
}

struct Row {
  const char* algo = "";
  std::size_t nwords = 0;
  std::size_t lanes = 0;
  double scalar_mhps = 0.0;   // million hashes/sec, hash_words per lane
  double batched_mhps = 0.0;  // million hashes/sec, hash_words_lanes
  double speedup = 0.0;
};

Row run_one(HashAlgo algo, const char* name, std::size_t nwords,
            std::size_t lanes, std::size_t reps) {
  // One flat lane-major block, same layout either path reads.
  std::vector<uint32_t> data(lanes * nwords);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = mix(static_cast<uint32_t>(i) * 2654435761u + 99u);
  std::vector<uint32_t> out(lanes);
  volatile uint32_t guard = 0;  // keep the hashing observable

  const uint64_t s0 = now_ns();
  for (std::size_t r = 0; r < reps; ++r) {
    uint32_t acc = 0;
    for (std::size_t l = 0; l < lanes; ++l)
      acc ^= hash_words(algo, 0x1234u + static_cast<uint32_t>(r & 3),
                        std::span<const uint32_t>(
                            data.data() + l * nwords, nwords));
    guard = guard ^ acc;
  }
  const uint64_t s1 = now_ns();

  const uint64_t b0 = now_ns();
  for (std::size_t r = 0; r < reps; ++r) {
    hash_words_lanes(algo, 0x1234u + static_cast<uint32_t>(r & 3),
                     data.data(), nwords, nwords, lanes, nullptr,
                     out.data());
    uint32_t acc = 0;
    for (std::size_t l = 0; l < lanes; ++l) acc ^= out[l];
    guard = guard ^ acc;
  }
  const uint64_t b1 = now_ns();

  Row row;
  row.algo = name;
  row.nwords = nwords;
  row.lanes = lanes;
  const double hashes = static_cast<double>(reps) * lanes;
  row.scalar_mhps = hashes * 1e3 / static_cast<double>(s1 - s0);
  row.batched_mhps = hashes * 1e3 / static_cast<double>(b1 - b0);
  row.speedup = row.batched_mhps / row.scalar_mhps;
  return row;
}

}  // namespace
}  // namespace newton

int main(int argc, char** argv) {
  using namespace newton;
  bench::header("Batched multi-lane hashing vs. single-lane");

  std::size_t reps = bench::full_scale() ? 200'000 : 50'000;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      reps = static_cast<std::size_t>(std::atol(argv[++i]));
      if (reps == 0) reps = 1;
    } else {
      std::fprintf(stderr, "usage: bench_hash [--reps N]\n");
      return 2;
    }
  }

  // Key widths: 1 (single field), 2 (src/dst pair), 5 (five-tuple),
  // 9 (every global field — what the executors' hash phase uses).
  // Lane counts: the runtime burst sweep's shapes.
  const std::size_t widths[] = {1, 2, 5, 9};
  const std::size_t lane_counts[] = {4, 16, 64, 256};
  struct AlgoCase {
    HashAlgo algo;
    const char* name;
  };
  const AlgoCase algos[] = {{HashAlgo::Crc32, "crc32"},
                            {HashAlgo::Crc32c, "crc32c"}};

  std::vector<Row> rows;
  for (const AlgoCase& a : algos)
    for (std::size_t w : widths)
      for (std::size_t lanes : lane_counts) {
        // Keep per-row work roughly constant across lane counts.
        const std::size_t r = std::max<std::size_t>(1, reps / lanes);
        Row row = run_one(a.algo, a.name, w, lanes, r);
        std::printf("%-7s words=%zu lanes=%3zu  scalar=%7.1f Mh/s  "
                    "batched=%7.1f Mh/s  speedup=%.2fx\n",
                    row.algo, row.nwords, row.lanes, row.scalar_mhps,
                    row.batched_mhps, row.speedup);
        rows.push_back(row);
      }
  bench::row_sep();

  FILE* f = std::fopen("BENCH_hash.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_hash.json\n");
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"hash_lanes\",\n");
  std::fprintf(f, "  \"metric\": \"million hashes per second, single-lane "
                  "hash_words vs batched hash_words_lanes on the same "
                  "lane-major keys\",\n");
  std::fprintf(f, "  \"rows\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "    {\"algo\": \"%s\", \"nwords\": %zu, \"lanes\": %zu, "
                 "\"scalar_mhps\": %.1f, \"batched_mhps\": %.1f, "
                 "\"speedup\": %.3f}%s\n",
                 r.algo, r.nwords, r.lanes, r.scalar_mhps, r.batched_mhps,
                 r.speedup, i + 1 == rows.size() ? "" : ",");
  }
  std::fprintf(f, "  ]\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote BENCH_hash.json\n");
  return 0;
}
