// Thread-free layer drives (README.md "Traced run").  The threaded runtime
// cannot isolate executor, hash or merge cost — worker time is spread over
// other threads and still includes ring spinning — so the traced run
// re-drives those layers without threads: replicas of the workload's
// installed pipeline, PHV bursts built by its own newton_init, and each
// layer's public entry point timed per burst.
#include <memory>
#include <random>
#include <stdexcept>

#include "compile/chain_ir.h"
#include "compile/executor.h"
#include "core/modules.h"
#include "dataplane/phv.h"
#include "sketch/hash.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace newton;

constexpr std::size_t kBurst = 64;        // the runtime's default burst
constexpr int kLowerReps = 9;
constexpr int kHashReps = 32;
constexpr int kMergeReps = 15;

// A worker-style replica: deep clone with every R module bound to a
// private buffer (the compiled R ops capture the sink pointer).
struct Replica {
  Pipeline pipe;
  ReportBuffer reports;

  explicit Replica(const Pipeline& src) : pipe(src.clone()) {
    for (std::size_t i = 0; i < pipe.num_stages(); ++i)
      for (const auto& t : pipe.stage(i).tables())
        if (auto* r = dynamic_cast<RModule*>(t.get())) r->set_sink(&reports);
  }
};

}  // namespace

void drive_layers(const NewtonSwitch& sw, const std::vector<Packet>& pkts,
                  std::size_t bank_registers, Tracer* tr,
                  std::map<std::string, double>& layer) {
  Tracer local;
  Tracer& t = tr != nullptr ? *tr : local;
  const uint32_t s_lower = t.intern("compile.lower");
  const uint32_t s_init = t.intern("dataplane.init");
  const uint32_t s_exec = t.intern("compile.exec");
  const uint32_t s_interp = t.intern("dataplane.interp");
  const uint32_t s_hash = t.intern("sketch.hash");
  const uint32_t s_merge = t.intern("dataplane.merge");

  auto init = std::dynamic_pointer_cast<InitModule>(sw.init_table().clone());
  if (!init) throw std::logic_error("drive_layers: init clone type");
  Replica jit_rep(sw.pipeline());
  Replica interp_rep(sw.pipeline());

  // compile.lower_ms: CompiledPipeline::build over the replica.
  compile::CompiledPipeline cp;
  std::vector<double> lower_ms;
  for (int r = 0; r < kLowerReps; ++r) {
    cp = compile::CompiledPipeline{};
    const uint64_t a = mono_ns();
    t.begin(s_lower, a);
    cp.build(jit_rep.pipe, kBurst, compile::ExecOptions{});
    const uint64_t b = mono_ns();
    t.end(b);
    lower_ms.push_back(static_cast<double>(b - a) / 1e6);
  }
  layer["compile.lower_ms"] = median(lower_ms);

  // Per burst: newton_init builds the PHVs, then the compiled executors
  // (partitioned into runs exactly as a shard worker does) and the
  // interpreter each execute their own copy of the same burst.
  const std::size_t total = std::min(pkts.size(), kDrivePackets);
  std::vector<Phv> a(kBurst), b(kBurst);
  uint64_t init_ns = 0, exec_ns = 0, interp_ns = 0;
  std::size_t done = 0;
  for (std::size_t off = 0; off < total; off += kBurst) {
    const std::size_t n = std::min(kBurst, total - off);
    for (std::size_t i = 0; i < n; ++i) {
      a[i].reset();
      a[i].pkt = pkts[off + i];
    }
    uint64_t c0 = mono_ns();
    t.begin(s_init, c0);
    init->execute_burst(a.data(), n);
    uint64_t c1 = mono_ns();
    t.end(c1);
    init_ns += c1 - c0;
    std::copy(a.begin(), a.begin() + static_cast<std::ptrdiff_t>(n),
              b.begin());

    c0 = mono_ns();
    t.begin(s_exec, c0);
    for (std::size_t i = 0; i < n;) {
      std::size_t j = i + 1;
      if (cp.covers(a[i])) {
        while (j < n && cp.covers(a[j]) && a[j].active == a[i].active) ++j;
        cp.execute_run(a.data() + i, j - i);
      } else {
        while (j < n && !cp.covers(a[j])) ++j;
        jit_rep.pipe.process_burst(a.data() + i, j - i);
      }
      i = j;
    }
    c1 = mono_ns();
    t.end(c1);
    exec_ns += c1 - c0;

    c0 = mono_ns();
    t.begin(s_interp, c0);
    interp_rep.pipe.process_burst(b.data(), n);
    c1 = mono_ns();
    t.end(c1);
    interp_ns += c1 - c0;
    done += n;
  }
  if (jit_rep.reports.size() != interp_rep.reports.size())
    throw std::runtime_error(
        "drive_layers: compiled and interpreted report counts differ");
  const double nd = done == 0 ? 1.0 : static_cast<double>(done);
  layer["dataplane.init_ns_per_pkt"] = static_cast<double>(init_ns) / nd;
  layer["compile.exec_ns_per_pkt"] = static_cast<double>(exec_ns) / nd;
  layer["dataplane.interp_ns_per_pkt"] = static_cast<double>(interp_ns) / nd;
  const compile::ExecStats& es = cp.stats();
  const double lanes =
      static_cast<double>(es.hash_lanes + es.hash_cse_lanes);
  layer["sketch.cse_saved_frac"] =
      lanes > 0 ? static_cast<double>(es.hash_cse_lanes) / lanes : 0.0;

  // sketch.hash_ns_per_lane: hash_words_lanes at every digest spec the
  // installed chains lower to, over the last burst's packet fields (an
  // out-of-line call writing `out`, so it cannot be folded away).
  Replica hash_rep(sw.pipeline());
  const compile::Lowering low = compile::lower(hash_rep.pipe);
  std::vector<compile::DigestSpec> specs;
  for (const compile::Chain& c : low.chains)
    specs.insert(specs.end(), c.digests.begin(), c.digests.end());
  if (!specs.empty() && done > 0) {
    constexpr std::size_t kStride = sizeof(Phv) / sizeof(uint32_t);
    const std::size_t n = std::min<std::size_t>(kBurst, done);
    std::vector<uint32_t> out(n);
    uint64_t hash_ns = 0;
    for (int r = 0; r < kHashReps; ++r) {
      const uint64_t c0 = mono_ns();
      t.begin(s_hash, c0);
      for (const compile::DigestSpec& s : specs)
        hash_words_lanes(s.algo, s.seed, a[0].pkt.fields.data(), kNumFields,
                         kStride, n, s.masks.data(), out.data());
      const uint64_t c1 = mono_ns();
      t.end(c1);
      hash_ns += c1 - c0;
    }
    layer["sketch.hash_ns_per_lane"] =
        static_cast<double>(hash_ns) /
        static_cast<double>(kHashReps * specs.size() * n);
  }

  // dataplane.merge_us: one whole-bank RegisterArray::merge_from (Add) at
  // the workload's bank size, as a window barrier folds a shard replica.
  RegisterArray dst(bank_registers), src(bank_registers);
  std::mt19937 rng(7);
  for (std::size_t i = 0; i < bank_registers; ++i) {
    src.execute(SaluOp::Write, i, rng() & 0xff);
    dst.execute(SaluOp::Write, i, rng() & 0xff);
  }
  std::vector<double> merge_us;
  for (int r = 0; r < kMergeReps; ++r) {
    const uint64_t c0 = mono_ns();
    t.begin(s_merge, c0);
    dst.merge_from(src, MergeOp::Add);
    const uint64_t c1 = mono_ns();
    t.end(c1);
    merge_us.push_back(static_cast<double>(c1 - c0) / 1e3);
  }
  layer["dataplane.merge_us"] = median(merge_us);
}

}  // namespace perfbench
