// Fig. 6(a): static rank binding with increasing process count (16 user
// processes per node): each process sends one accumulate to every other
// process. More ghost processes per node help once the incoming software
// operation rate exceeds what fewer ghosts can serve.
#include <iostream>

#include "fig6_common.hpp"
#include "report/json.hpp"

using namespace casper;
using bench::Mode;
using bench::RunSpec;

int main(int argc, char** argv) {
  const bool csv = report::csv_mode(argc, argv);
  const bool full = bench::has_flag(argc, argv, "--full");
  report::banner(std::cout, "Fig 6(a)",
                 "static rank binding, increasing processes "
                 "(16 users/node, 1 acc to every peer)");

  // 16 user processes per node in every series; Casper runs dedicate g
  // additional cores per node to ghosts (the paper's CSP_NG knob).
  const int users_per_node = 16;
  report::Table t({"procs", "original(ms)", "casper_2g(ms)", "casper_4g(ms)",
                   "casper_8g(ms)", "speedup_8g"});
  const int max_p = full ? 1024 : 256;
  for (int p = 64; p <= max_p; p *= 2) {
    auto spec = [&](Mode m, int ghosts) {
      RunSpec s;
      s.mode = m;
      s.profile = net::cray_xc30_regular();
      s.nodes = p / users_per_node;
      s.user_cpn = users_per_node;
      s.ghosts = ghosts;
      s.binding = core::Binding::Rank;
      return s;
    };
    const double orig = bench::fig6_alltoall_acc_us(spec(Mode::Original, 0), 1);
    const double g2 = bench::fig6_alltoall_acc_us(spec(Mode::Casper, 2), 1);
    const double g4 = bench::fig6_alltoall_acc_us(spec(Mode::Casper, 4), 1);
    const double g8 = bench::fig6_alltoall_acc_us(spec(Mode::Casper, 8), 1);
    t.row({report::fmt_count(static_cast<std::uint64_t>(p)),
           report::fmt(orig / 1000.0, 2), report::fmt(g2 / 1000.0, 2),
           report::fmt(g4 / 1000.0, 2), report::fmt(g8 / 1000.0, 2),
           report::fmt(orig / g8, 2)});
  }
  t.print(std::cout, csv);
  std::cout << "expectation: with few processes 2 ghosts suffice; at larger "
               "scale more ghosts keep up with the higher incoming "
               "accumulate rate and win.\n";
  if (!full) std::cout << "(reduced scale; pass --full for up to 1024)\n";

  // --json: write BENCH_fig6a.json for the perf-regression gate. The rows
  // are virtual time (exact-match against the baseline); the host block is
  // the wall-clock of the p=64 casper_8g run, best-of-5, and the peak RSS of
  // the whole process (the sweep above dominates it: Casper window state at
  // the largest p); the metrics block comes from a separate instrumented
  // p=64 run (instrumentation is never inside the timed loop).
  if (bench::has_flag(argc, argv, "--json")) {
    auto spec64 = [&](Mode m, int ghosts) {
      RunSpec s;
      s.mode = m;
      s.profile = net::cray_xc30_regular();
      s.nodes = 64 / users_per_node;
      s.user_cpn = users_per_node;
      s.ghosts = ghosts;
      s.binding = core::Binding::Rank;
      return s;
    };
    const int kRuns = 5;
    const double sweep_ms = bench::host_best_of_ms(kRuns, [&] {
      bench::fig6_alltoall_acc_us(spec64(Mode::Casper, 8), 1);
    });
    obs::Recorder rec;
    RunSpec s = spec64(Mode::Casper, 8);
    s.recorder = &rec;
    bench::fig6_alltoall_acc_us(s, 1);
    if (!report::write_bench_json_file(
            "BENCH_fig6a.json", "fig6a", t, &rec.metrics(),
            bench::host_block_json(sweep_ms, kRuns, bench::peak_rss_kb()))) {
      std::cerr << "fig6a: cannot write BENCH_fig6a.json\n";
      return 1;
    }
  }
  return 0;
}
