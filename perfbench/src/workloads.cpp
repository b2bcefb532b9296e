/// The four workloads: seeded set-up (repeated, median reported), the
/// measured phases, and the end-to-end and per-layer metric assembly.

#include "workloads.hpp"

#include <unistd.h>

#include <dirent.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "alloc_counter.hpp"
#include "phases.hpp"
#include "serve/thread_pool.hpp"

namespace perfbench {

namespace {

// ------------------------------------------------------------ metric names

struct MetricDef {
  const char* name;
  const char* unit;
};

/// The gated end-to-end metrics (BENCHMARK.json "end_to_end"). Medians
/// and throughputs are taken per repetition, then the median across
/// repetitions is reported. cells_per_s is cells advanced over the summed
/// wall time of the phase's ticks, so a stall in any tick counts;
/// ingest_lag_p50_us is the median over ticks of each tick's median lag
/// (see README).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"tick_p50_us", "us"},
    {"cells_per_s", "1/s"},
    {"ingest_lag_p50_us", "us"},
    {"swap_to_serve_ms", "ms"},
    {"rollout_p50_ms", "ms"},
    {"lane_steps_per_s", "1/s"},
    {"rss_mb", "MB"},
};

/// Printed in the summary line but not gated: the tails and the
/// per-message median lag, whose run-to-run spread follows the host's
/// scheduling stalls (see README).
constexpr MetricDef kTails[] = {
    {"tick_p99_us", "us"},
    {"ingest_lag_p99_us", "us"},
    {"gen_late_p99_us", "us"},
    {"rollout_p99_ms", "ms"},
    {"ingest_lag_p50_msg_us", "us"},
};

constexpr MetricDef kPerLayer[] = {
    {"nn.dense.l1.ns", "ns"},        {"nn.dense.l1.gmacs", "GMAC/s"},
    {"nn.dense.l1.bytes", "B"},      {"nn.dense.l2.ns", "ns"},
    {"nn.dense.l2.gmacs", "GMAC/s"}, {"nn.dense.l2.bytes", "B"},
    {"nn.dense.l3.ns", "ns"},        {"nn.dense.l3.gmacs", "GMAC/s"},
    {"nn.dense.l3.bytes", "B"},      {"nn.dense.l4.ns", "ns"},
    {"nn.dense.l4.gmacs", "GMAC/s"}, {"nn.dense.l4.bytes", "B"},
    {"nn.dense.b1.ns", "ns"},        {"nn.dense.b1.gmacs", "GMAC/s"},
    {"nn.dense.b1.bytes", "B"},      {"nn.scaler.transform_us", "us"},
    {"serve.thread_pool.dispatch_us", "us"},
    {"serve.fleet.step_us", "us"},
    {"serve.fleet.residual_us", "us"},
    {"serve.mailbox.publish_ns", "ns"},
    {"serve.mailbox.applied_ratio", "ratio"},
    {"serve.mailbox.dropped.sensor", "count"},
    {"serve.mailbox.dropped.workload", "count"},
    {"serve.mailbox.dropped.param", "count"},
    {"core.estimate_batch_us", "us"},
    {"core.eq1_ns_per_cell", "ns"},
    {"serve.sharded.step_us", "us"},
    {"serve.sharded.command_overhead_us", "us"},
    {"serve.shm.publish_ns", "ns"},
    {"serve.sharded.swap_us", "us"},
    {"serve.sharded.adopt_excess_us", "us"},
    {"core.save_model_us", "us"},
    {"core.load_model_us", "us"},
    {"serve.rollout.run_us", "us"},
    {"serve.rollout.active_ratio", "ratio"},
    {"serve.rollout.reanchors", "count"},
    {"allocs_per_op", "count"},
    {"trace.overhead_us", "us"},
};

using Values = std::map<std::string, double>;

std::vector<Metric> in_order(const Values& v, const MetricDef* defs,
                             std::size_t n) {
  std::vector<Metric> out;
  for (std::size_t i = 0; i < n; ++i) {
    const auto it = v.find(defs[i].name);
    out.push_back({defs[i].name, it == v.end() ? 0.0 : it->second,
                   defs[i].unit});
  }
  return out;
}

double med(const std::vector<double>& v) { return stats::median(v); }

double pct(std::vector<double> v, double q) {
  return stats::percentile(v, q);
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

// ------------------------------------------------------------ process info

std::uint64_t status_kb(const std::string& path, const char* key) {
  std::ifstream in(path);
  std::string line;
  const std::size_t klen = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, klen, key) == 0) {
      return std::strtoull(line.c_str() + klen, nullptr, 10);
    }
  }
  return 0;
}

/// Peak RSS (MB) of this process plus its live child processes.
double peak_rss_mb() {
  std::uint64_t kb = status_kb("/proc/self/status", "VmHWM:");
  const long self = static_cast<long>(getpid());
  if (DIR* dir = opendir("/proc")) {
    while (dirent* e = readdir(dir)) {
      char* end = nullptr;
      const long pid = std::strtol(e->d_name, &end, 10);
      if (pid <= 0 || *end != '\0' || pid == self) continue;
      const std::string base = "/proc/" + std::string(e->d_name);
      if (static_cast<long>(status_kb(base + "/status", "PPid:")) != self) {
        continue;
      }
      kb += status_kb(base + "/status", "VmHWM:");
    }
    closedir(dir);
  }
  return static_cast<double>(kb) / 1024.0;
}

/// Median wall time (us) of an empty parallel_for at pool size.
double pool_dispatch_us(std::size_t threads) {
  serve::ThreadPool pool(threads);
  std::vector<double> us;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t t0 = now_ns();
    pool.parallel_for(pool.size(),
                      [](std::size_t, std::size_t, std::size_t) {});
    us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
  }
  return med(us);
}

// ------------------------------------------------------------ set-up

/// Everything one run uses, built from the seed.
struct Setup {
  std::unique_ptr<core::TwoBranchNet> nets[2];
  std::vector<nn::Matrix> rows;
  nn::Matrix sensors;  ///< connect-time Branch-1 rows
  MsgPool pool;
  /// FleetEngine workloads, and rollout_plan's companion fleet.
  std::unique_ptr<serve::FleetEngine> fleet;
  std::unique_ptr<serve::ShardedFleet> sharded;
  std::unique_ptr<Mirror> mirror;
  std::unique_ptr<serve::RolloutEngine> rollout;
  RolloutSet lanes;
};

struct Spec {
  const char* name;
  enum Main { kFleet, kSharded, kRollout } main;
  std::size_t cells;  ///< fleet cells (rollout_plan: its companion fleet)
  std::size_t threads;  ///< pool threads (per worker when sharded)
  std::size_t workers;
  core::Precision precision;
  double physics_frac;
  const IngestConfig* ingest;  ///< main-phase telemetry (nullptr: none)
  std::size_t swap_every;
  std::size_t rollout_lanes;
  // time shares of run_seconds
  double main_share;
  double session_share;  ///< side fleet session (ingest/swaps)
  double rollout_share;  ///< side rollout phase (or rollout swaps)
  const IngestConfig* side_ingest;  ///< side-session telemetry (nullptr: none)
  /// Swaps in the side phase, every this many ticks or rollout runs: a
  /// sampling cadence that yields a few swaps per repetition.
  std::size_t side_swap_every;
};

/// The fleet_ingest telemetry mix, reused by every side phase that
/// ingests: per 1 ms, 20 % of cells get a sensor report, 10 % an override
/// and 1 % a param update; 0.5 % of messages carry a NaN or Inf.
constexpr IngestConfig kFleetIngestMix{
    .interval_us = 1000.0, .sensor_frac = 0.2, .workload_frac = 0.1,
    .param_frac = 0.01, .nonfinite_frac = 0.005, .pool_intervals = 64};

/// `mix` with its fractions times `scale`, per `interval_us`; the pool
/// keeps the same cycle length.
constexpr IngestConfig scaled(IngestConfig mix, double scale,
                              double interval_us) {
  mix.sensor_frac *= scale;
  mix.workload_frac *= scale;
  mix.param_frac *= scale;
  mix.pool_intervals = static_cast<std::size_t>(
      static_cast<double>(mix.pool_intervals) * mix.interval_us / interval_us);
  mix.interval_us = interval_us;
  return mix;
}

/// fleet_bulk's side phase: the same mix at a quarter of its fractions per
/// 4 ms (about one 32768-cell tick), 1/16 of its message rate. At the full
/// fractions, per 1 ms or per 4 ms, the generator and the 2-thread tick
/// fall behind the due times: messages wait several ticks, and the phase
/// gets too few ticks to sample swaps (measurements in the README).
constexpr IngestConfig kBulkSideMix = scaled(kFleetIngestMix, 0.25, 4000.0);

/// shard_command: 1 % of cells get a sensor report per tick; 400 us is
/// about its median tick.
constexpr IngestConfig kShardIngest{
    .interval_us = 400.0, .sensor_frac = 0.01, .nonfinite_frac = 0.005,
    .pool_intervals = 256};

const Spec kSpecs[] = {
    {"fleet_bulk", Spec::kFleet, 32768, 2, 0, core::Precision::kFloat64, 0.0,
     nullptr, 0, 64, 0.7, 0.15, 0.15, &kBulkSideMix, 8},
    {"fleet_ingest", Spec::kFleet, 4096, 1, 0, core::Precision::kFloat32, 0.1,
     &kFleetIngestMix, 0, 64, 0.65, 0.15, 0.2, nullptr, 16},
    {"shard_command", Spec::kSharded, 3072, 1, 3, core::Precision::kFloat64,
     0.0, &kShardIngest, 500, 64, 0.75, 0.0, 0.25, nullptr, 0},
    // The companion fleet keeps fleet_ingest's 10 % physics-only cells, so
    // FleetEngine's physics path is measured here too.
    {"rollout_plan", Spec::kRollout, 4096, 2, 0, core::Precision::kFloat64,
     0.1, nullptr, 0, 256, 0.6, 0.25, 0.15, &kFleetIngestMix, 4},
};

/// Side rollout phases run on one thread. A 64-lane run takes under 1 ms,
/// and at two threads the pool's wake-up latency, which in a VM varies with
/// the host's load, split fleet_bulk's runs into a fast and a slow mode: a
/// ten-run spread of 0.36 to 0.38 for rollout_p50_ms.
std::size_t rollout_threads(const Spec& spec) {
  return spec.main == Spec::kRollout ? spec.threads : 1;
}

serve::FleetConfig fleet_config(std::size_t threads,
                                core::Precision precision) {
  serve::FleetConfig config;
  config.threads = threads;
  config.precision = precision;
  return config;
}

void seed_modes(serve::FleetEngine& engine, Mirror& mirror, double frac,
                util::Rng& rng) {
  if (frac <= 0.0) return;
  // Exactly frac of the fleet, at seeded positions.
  const std::size_t cells = engine.num_cells();
  std::vector<serve::CellMode> modes(cells, serve::CellMode::kCascade);
  const auto count = static_cast<std::size_t>(frac * static_cast<double>(cells));
  for (std::size_t placed = 0; placed < count;) {
    const std::size_t c = rng.index(cells);
    if (mirror.physics[c] != 0) continue;
    modes[c] = serve::CellMode::kPhysicsOnly;
    mirror.physics[c] = 1;
    ++placed;
  }
  engine.set_cell_modes(modes);
}

std::unique_ptr<Setup> build(const Spec& spec, std::uint64_t seed) {
  auto s = std::make_unique<Setup>();
  util::Rng rng(seed);
  // The served models are fixed: the seed drives traffic and lanes, not
  // the weights.
  s->nets[0] = std::make_unique<core::TwoBranchNet>(make_net(1));
  s->nets[1] = std::make_unique<core::TwoBranchNet>(make_net(2));
  const core::TwoBranchNet& net = *s->nets[0];
  s->rows = make_row_pool(spec.cells, 4, rng);
  s->sensors = make_sensors(spec.cells, rng);
  const IngestConfig* ic = spec.ingest ? spec.ingest : spec.side_ingest;
  if (ic) s->pool = make_msg_pool(spec.cells, *ic, rng);
  s->mirror = std::make_unique<Mirror>(spec.cells);
  if (spec.main == Spec::kSharded) {
    serve::ShardedFleetConfig config;
    config.workers = spec.workers;
    config.threads_per_worker = spec.threads;
    config.precision = spec.precision;
    config.alloc_counter = &alloc_count;
    s->sharded = std::make_unique<serve::ShardedFleet>(net, spec.cells, config);
    s->sharded->init_from_sensors(s->sensors);
    s->sharded->step(s->rows[0]);
  } else {
    s->fleet = std::make_unique<serve::FleetEngine>(
        net, spec.cells, fleet_config(spec.threads, spec.precision));
    seed_modes(*s->fleet, *s->mirror, spec.physics_frac, rng);
    s->fleet->init_from_sensors(s->sensors);
    s->fleet->step(s->rows[0]);  // warm every shard's scratch
  }
  make_rollout_set(s->lanes, spec.rollout_lanes, rng);
  // Rollouts serve f64 on every workload: a whole f32 trajectory of this
  // untrained net drifts past the 1e-4 per-tick tolerance, and the f32
  // workload's subject is the fleet tick.
  s->rollout = std::make_unique<serve::RolloutEngine>(
      net, serve::RolloutConfig{.threads = rollout_threads(spec)});
  s->rollout->run_into(s->lanes.lanes, s->lanes.out);  // warm the scratch
  return s;
}

/// The commands one ShardedFleet session published, and the net it began on.
struct LoggedSession {
  std::vector<std::vector<std::uint32_t>> log;
  int first_net = 0;
};

/// Replays the logged sessions on an in-process FleetEngine built like the
/// sharded one and returns the number of cells whose final SoC differs
/// bitwise; `stats_out` receives the replay's ingest counters.
std::size_t mirror_mismatches(const Spec& spec, const Setup& s,
                              const std::vector<LoggedSession>& sessions,
                              serve::IngestStats* stats_out) {
  serve::FleetEngine ref(*s.nets[0], spec.cells,
                         fleet_config(3, spec.precision));
  ref.init_from_sensors(s.sensors);
  ref.step(s.rows[0]);
  int current = 0;
  for (const LoggedSession& session : sessions) {
    if (session.first_net != current) {
      current = session.first_net;
      ref.swap_model(*s.nets[current]);
    }
    for (std::size_t t = 0; t < session.log.size(); ++t) {
      for (const std::uint32_t i : session.log[t]) publish(ref, s.pool.msgs[i]);
      if (spec.swap_every > 0 && t > 0 && t % spec.swap_every == 0) {
        current ^= 1;
        ref.swap_model(*s.nets[current]);
      }
      ref.step(s.rows[t % s.rows.size()]);
    }
  }
  *stats_out = ref.ingest_stats();
  std::size_t bad = 0;
  for (std::size_t c = 0; c < spec.cells; ++c) {
    if (ref.soc()[c] != s.sharded->soc()[c]) ++bad;
  }
  return bad;
}

/// Median step time (us) of an in-process one-thread FleetEngine over one
/// shard's cells: the baseline of the sharded command overhead. Layer
/// replays at the same shape run between its steps, into `replays`.
double one_shard_step_us(const Spec& spec, Env& env, Replays& replays) {
  const std::size_t cells = spec.cells / spec.workers;
  serve::FleetEngine engine(*env.nets[env.current], cells,
                            fleet_config(1, spec.precision));
  util::Rng rng(7);
  const std::vector<nn::Matrix> rows = make_row_pool(cells, 1, rng);
  engine.init_from_sensors(make_sensors(cells, rng));
  engine.step(rows[0]);
  std::vector<double> us;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t t0 = now_ns();
    engine.step(rows[0]);
    us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    if (i % kReplayEvery == 0) replay_layers(env, cells, 0, replays);
  }
  return med(us);
}

constexpr int kReps = 16;

/// Pools one repetition's session into `into`, first recording the
/// repetition's own median tick, throughputs and median lag.
void append(std::optional<SessionOut>& into, SessionOut&& from) {
  if (!into) into = SessionOut{};
  SessionOut& a = *into;
  if (!from.tick_ns.empty()) {
    a.rep_tick_p50_ns.push_back(med(from.tick_ns));
    a.rep_cells_per_s.push_back(static_cast<double>(from.cells_advanced) /
                                (sum(from.tick_ns) / 1e9));
  }
  if (!from.tick_lag_p50_ns.empty()) {
    a.rep_lag_p50_ns.push_back(med(from.tick_lag_p50_ns));
  }
  a.tick_ns.insert(a.tick_ns.end(), from.tick_ns.begin(), from.tick_ns.end());
  a.swap_to_serve_ns.insert(a.swap_to_serve_ns.end(),
                            from.swap_to_serve_ns.begin(),
                            from.swap_to_serve_ns.end());
  a.after_swap_tick_ns.insert(a.after_swap_tick_ns.end(),
                              from.after_swap_tick_ns.begin(),
                              from.after_swap_tick_ns.end());
  a.open_loop.lag.merge(from.open_loop.lag);
  a.open_loop.late.merge(from.open_loop.late);
  a.ticks += from.ticks;
  a.cells_advanced += from.cells_advanced;
  for (int k = 0; k < kNumKinds; ++k) {
    a.published[k] += from.published[k];
    a.nonfinite_dropped[k] += from.nonfinite_dropped[k];
  }
  a.superseded += from.superseded;
  a.applied += from.applied;
  a.publish_ns += from.publish_ns;
  a.allocs += from.allocs;
}

/// Pools one repetition's rollouts into `into`, first recording the
/// repetition's own median run and throughput.
void append(std::optional<RolloutOut>& into, RolloutOut&& from) {
  if (!into) into = RolloutOut{};
  RolloutOut& a = *into;
  if (!from.run_ns.empty()) {
    a.rep_run_p50_ns.push_back(med(from.run_ns));
    a.rep_lane_steps_per_s.push_back(static_cast<double>(from.lane_steps) /
                                     (sum(from.run_ns) / 1e9));
  }
  a.run_ns.insert(a.run_ns.end(), from.run_ns.begin(), from.run_ns.end());
  a.swap_to_serve_ns.insert(a.swap_to_serve_ns.end(),
                            from.swap_to_serve_ns.begin(),
                            from.swap_to_serve_ns.end());
  a.runs += from.runs;
  a.lane_steps += from.lane_steps;
  a.allocs += from.allocs;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> n;
    for (const Spec& s : kSpecs) n.emplace_back(s.name);
    return n;
  }();
  return names;
}

RunResult run_workload(const RunOptions& opt) {
  const Spec* spec = nullptr;
  for (const Spec& s : kSpecs) {
    if (opt.workload == s.name) spec = &s;
  }
  if (spec == nullptr) {
    throw std::invalid_argument("unknown workload '" + opt.workload + "'");
  }
  RunResult result;
  result.f32 = spec->precision == core::Precision::kFloat32;
  Values v;   // end-to-end
  Values pl;  // per-layer

  Tracer off(false);
  Tracer on(opt.trace, 1u << 22);
  Tracer& tr = opt.trace ? on : off;
  const SpanNames names(tr);
  const SpanNames off_names(off);
  Ops ops;
  util::Rng sample_rng(opt.seed ^ 0x5eedULL);
  Env env{tr, names, ops, sample_rng, spec->precision, {nullptr, nullptr}, 0};
  Env env_off{off, off_names, ops, sample_rng, spec->precision,
              {nullptr, nullptr}, 0};
  Replays main_rep, side_rep, untraced_rep;

  // The run is kReps repetitions of set-up plus every phase at 1/kReps of
  // the time, each on freshly built engines: an engine's speed depends on
  // where its buffers land in memory, which holds for the engine's
  // lifetime, so one engine per run would make that placement the
  // run-to-run spread. Samples pool across repetitions; setup_s is the
  // median set-up.
  const double rep_s = opt.seconds / kReps;
  const double main_s = rep_s * spec->main_share;
  const double session_s = rep_s * spec->session_share;
  const double rollout_s = rep_s * spec->rollout_share;
  // A traced run first measures a quarter of the main phase untraced: the
  // baseline of the tracing overhead.
  const double baseline_s = opt.trace ? 0.25 * main_s : 0.0;
  const double traced_main_s = main_s - baseline_s;
  const std::size_t threads = spec->threads;

  std::optional<SessionOut> main_out, main_base, side_out;
  std::optional<RolloutOut> roll_out, roll_base, roll_side;
  std::vector<double> setup_s;
  std::unique_ptr<Setup> setup;
  double rss = 0.0;

  for (int rep = 0; rep < kReps; ++rep) {
    setup.reset();
    main_rep.cache.reset();
    side_rep.cache.reset();
    untraced_rep.cache.reset();
    const std::int64_t t_setup = now_ns();
    setup = build(*spec, opt.seed);
    setup_s.push_back(static_cast<double>(now_ns() - t_setup) / 1e9);
    Setup& s = *setup;
    for (Env* e : {&env, &env_off}) {
      e->nets[0] = s.nets[0].get();
      e->nets[1] = s.nets[1].get();
      e->current = 0;
    }
    if (rep == 0) {
      result.isa = s.fleet ? s.fleet->simd_isa() : s.rollout->simd_isa();
    }
    std::vector<LoggedSession> logged;

    if (spec->main == Spec::kFleet || spec->main == Spec::kSharded) {
      SessionConfig mc;
      mc.ingest = spec->ingest ? &s.pool : nullptr;
      mc.swap_every = spec->swap_every;
      mc.shard_batch = spec->main == Spec::kSharded
                           ? spec->cells / spec->workers
                           : (spec->cells + threads - 1) / threads;
      mc.record = spec->main == Spec::kSharded;
      auto run_main = [&](Env& e, double secs, Replays& r) {
        mc.seconds = secs;
        const int first = e.current;
        SessionOut o =
            spec->main == Spec::kFleet
                ? run_session(*s.fleet, e, *s.mirror, s.rows, mc, r)
                : run_session(*s.sharded, e, *s.mirror, s.rows, mc, r);
        if (mc.record) logged.push_back({std::move(o.log), first});
        env.current = env_off.current = e.current;
        return o;
      };
      if (baseline_s > 0.0) {
        append(main_base, run_main(env_off, baseline_s, untraced_rep));
      }
      append(main_out, run_main(env, traced_main_s, main_rep));
      if (spec->session_share > 0.0) {
        SessionConfig sc = mc;
        sc.seconds = session_s;
        sc.ingest = spec->side_ingest ? &s.pool : nullptr;
        sc.swap_every = spec->side_swap_every;
        sc.record = false;
        append(side_out,
               run_session(*s.fleet, env, *s.mirror, s.rows, sc, side_rep));
      }
      // shard_command: the final sharded SoC must equal an in-process
      // engine fed the same command sequence, bit for bit. The workers stop
      // before the rollout phase: their polling would otherwise share the
      // CPUs with it.
      if (spec->main == Spec::kSharded) {
        rss = std::max(rss, peak_rss_mb());
        ++ops.attempted;
        serve::IngestStats ref_stats;
        const std::size_t bad =
            mirror_mismatches(*spec, s, logged, &ref_stats);
        if (bad > 0) {
          ops.fail(std::to_string(bad) +
                   " cells differ from the in-process replay");
        }
        if (!(ref_stats == s.sharded->ingest_stats())) {
          ops.fail("ingest stats differ from the in-process replay");
        }
        s.sharded.reset();
      }
      RolloutPhaseConfig rc;
      rc.seconds = rollout_s;
      // The rollout engine serves whichever net the fleet ended on.
      s.rollout->swap_model(*env.nets[env.current]);
      append(roll_side, run_rollouts(*s.rollout, env, s.lanes, rc, side_rep));
    } else {
      RolloutPhaseConfig rc;
      if (baseline_s > 0.0) {
        rc.seconds = baseline_s;
        append(roll_base,
               run_rollouts(*s.rollout, env_off, s.lanes, rc, untraced_rep));
      }
      rc.seconds = traced_main_s;
      append(roll_out, run_rollouts(*s.rollout, env, s.lanes, rc, main_rep));
      rc.seconds = rollout_s;
      rc.swap_every = spec->side_swap_every;
      append(roll_side, run_rollouts(*s.rollout, env, s.lanes, rc, side_rep));
      SessionConfig sc;
      sc.seconds = session_s;
      sc.ingest = &s.pool;
      sc.shard_batch = (spec->cells + threads - 1) / threads;
      sc.swap_every = 0;
      env.current = 0;  // the companion fleet still serves nets[0]
      append(side_out,
             run_session(*s.fleet, env, *s.mirror, s.rows, sc, side_rep));
    }
    rss = std::max(rss, peak_rss_mb());
  }
  v["setup_s"] = med(setup_s);
  Setup& s = *setup;

  // Which phase feeds which end-to-end metric.
  const SessionOut* ticks = spec->main == Spec::kRollout ? &*side_out
                                                         : &*main_out;
  const SessionOut* ingest = spec->ingest ? &*main_out : &*side_out;
  const std::vector<double>& swaps =
      spec->swap_every > 0 ? main_out->swap_to_serve_ns
      : spec->main == Spec::kRollout ? roll_side->swap_to_serve_ns
                                     : side_out->swap_to_serve_ns;
  const RolloutOut& rolls = spec->main == Spec::kRollout ? *roll_out
                                                         : *roll_side;

  v["tick_p50_us"] = med(ticks->rep_tick_p50_ns) / 1e3;
  v["cells_per_s"] = med(ticks->rep_cells_per_s);
  v["ingest_lag_p50_us"] = med(ingest->rep_lag_p50_ns) / 1e3;
  v["swap_to_serve_ms"] = med(swaps) / 1e6;
  v["rollout_p50_ms"] = med(rolls.rep_run_p50_ns) / 1e6;
  v["lane_steps_per_s"] = med(rolls.rep_lane_steps_per_s);
  Values tails;
  tails["tick_p99_us"] = pct(ticks->tick_ns, 0.99) / 1e3;
  tails["ingest_lag_p99_us"] = ingest->open_loop.lag.percentile(0.99) / 1e3;
  tails["gen_late_p99_us"] = ingest->open_loop.late.percentile(0.99) / 1e3;
  tails["rollout_p99_ms"] = pct(rolls.run_ns, 0.99) / 1e6;
  tails["ingest_lag_p50_msg_us"] = ingest->open_loop.lag.percentile(0.5) / 1e3;
  v["rss_mb"] = rss;

  result.tails_supported =
      opt.trace ||
      (stats::tail_supported(ticks->tick_ns.size(), 0.99) &&
       stats::tail_supported(ingest->open_loop.lag.count(), 0.99) &&
       stats::tail_supported(ingest->open_loop.late.count(), 0.99) &&
       stats::tail_supported(rolls.run_ns.size(), 0.99) && swaps.size() >= 10);
  result.context = {
      {"tick_samples", static_cast<double>(ticks->tick_ns.size()), "count"},
      {"ingest_lag_samples", static_cast<double>(ingest->open_loop.lag.count()),
       "count"},
      {"swap_samples", static_cast<double>(swaps.size()), "count"},
      {"rollout_samples", static_cast<double>(rolls.run_ns.size()), "count"},
      {"rollout_lane_steps_per_run", static_cast<double>(s.lanes.total_steps),
       "count"},
      {"repetitions", static_cast<double>(kReps), "count"},
  };
  for (const Metric& m : in_order(tails, kTails, std::size(kTails))) {
    result.context.push_back(m);
  }

  if (opt.trace) {
    // nn: Branch-2 dense layers and Branch 1 at the replayed shard batch.
    const std::size_t tbytes =
        spec->precision == core::Precision::kFloat32 ? 4 : 8;
    const std::size_t b = main_rep.batch;
    const nn::Mlp& b2 = s.nets[0]->branch2();
    std::size_t k = 0;
    double b1_macs = 0.0, b1_bytes = 0.0;
    auto shape_cost = [&](const nn::Layer& layer, double& macs,
                          double& bytes) {
      const double in = static_cast<double>(layer.input_dim());
      const double out = static_cast<double>(layer.output_dim());
      const double batch = static_cast<double>(b);
      macs = in * out * batch;
      bytes = static_cast<double>(tbytes) *
              (in * batch + out * batch + in * out + out);
    };
    for (std::size_t i = 0; i < b2.num_layers() && k < 4; ++i) {
      if (b2.layer(i).macs_per_sample() == 0) continue;
      double macs = 0.0, bytes = 0.0;
      shape_cost(b2.layer(i), macs, bytes);
      const std::string p = "nn.dense.l" + std::to_string(k + 1);
      const double ns = med(main_rep.dense[k]);
      pl[p + ".ns"] = ns;
      pl[p + ".gmacs"] = ns > 0.0 ? macs / ns : 0.0;
      pl[p + ".bytes"] = bytes;
      result.context.push_back({p + ".macs_computed", macs, "MAC"});
      result.context.push_back({p + ".bytes_computed", bytes, "B"});
      ++k;
    }
    const nn::Mlp& b1 = s.nets[0]->branch1();
    for (std::size_t i = 0; i < b1.num_layers(); ++i) {
      if (b1.layer(i).macs_per_sample() == 0) continue;
      double macs = 0.0, bytes = 0.0;
      shape_cost(b1.layer(i), macs, bytes);
      b1_macs += macs;
      b1_bytes += bytes;
    }
    const double b1_ns = med(main_rep.dense_b1);
    pl["nn.dense.b1.ns"] = b1_ns;
    pl["nn.dense.b1.gmacs"] = b1_ns > 0.0 ? b1_macs / b1_ns : 0.0;
    pl["nn.dense.b1.bytes"] = b1_bytes;
    result.context.push_back({"nn.dense.batch", static_cast<double>(b), "count"});
    result.context.push_back({"nn.dense.b1.macs_computed", b1_macs, "MAC"});
    pl["nn.scaler.transform_us"] = med(main_rep.scaler) / 1e3;
    pl["core.estimate_batch_us"] = med(main_rep.estimate) / 1e3;
    result.context.push_back({"core.estimate_batch_rows",
                              static_cast<double>(main_rep.estimate_batch),
                              "count"});
    pl["core.eq1_ns_per_cell"] = med(main_rep.eq1);
    pl["serve.thread_pool.dispatch_us"] = pool_dispatch_us(threads);

    // serve.fleet / serve.sharded
    if (spec->main == Spec::kFleet || spec->main == Spec::kRollout) {
      const SessionOut& fs = spec->main == Spec::kFleet ? *main_out : *side_out;
      const Replays& fr = spec->main == Spec::kFleet ? main_rep : side_rep;
      const double step = med(fs.tick_ns) / 1e3;
      pl["serve.fleet.step_us"] = step;
      pl["serve.fleet.residual_us"] =
          step - (med(fr.predict) + med(fr.estimate)) / 1e3;
    } else {
      Replays one_rep;
      const double one = one_shard_step_us(*spec, env, one_rep);
      const double step = med(main_out->tick_ns) / 1e3;
      pl["serve.fleet.step_us"] = one;
      pl["serve.fleet.residual_us"] = one - med(one_rep.predict) / 1e3;
      pl["serve.sharded.step_us"] = step;
      pl["serve.sharded.command_overhead_us"] = step - one;
      pl["serve.sharded.swap_us"] = med(tr.durations(names.swap)) / 1e3;
      pl["serve.sharded.adopt_excess_us"] =
          (med(main_out->after_swap_tick_ns) - med(main_out->tick_ns)) / 1e3;
    }

    // serve.mailbox: the phase that carried telemetry
    const double pub = static_cast<double>(ingest->published[0] +
                                           ingest->published[1] +
                                           ingest->published[2]);
    const double per_msg =
        pub > 0.0 ? static_cast<double>(ingest->publish_ns) / pub : 0.0;
    pl[spec->main == Spec::kSharded ? "serve.shm.publish_ns"
                                    : "serve.mailbox.publish_ns"] = per_msg;
    pl["serve.mailbox.applied_ratio"] =
        pub > 0.0 ? static_cast<double>(ingest->applied) /
                        (pub - static_cast<double>(ingest->superseded))
                  : 0.0;
    pl["serve.mailbox.dropped.sensor"] =
        static_cast<double>(ingest->nonfinite_dropped[0]);
    pl["serve.mailbox.dropped.workload"] =
        static_cast<double>(ingest->nonfinite_dropped[1]);
    pl["serve.mailbox.dropped.param"] =
        static_cast<double>(ingest->nonfinite_dropped[2]);

    std::vector<double> save = main_rep.save_model, load = main_rep.load_model;
    save.insert(save.end(), side_rep.save_model.begin(),
                side_rep.save_model.end());
    load.insert(load.end(), side_rep.load_model.begin(),
                side_rep.load_model.end());
    pl["core.save_model_us"] = med(save) / 1e3;
    pl["core.load_model_us"] = med(load) / 1e3;

    pl["serve.rollout.run_us"] = med(rolls.run_ns) / 1e3;
    pl["serve.rollout.active_ratio"] =
        static_cast<double>(s.lanes.total_steps) /
        static_cast<double>(s.lanes.lanes.size() * s.lanes.max_steps);
    pl["serve.rollout.reanchors"] = static_cast<double>(s.lanes.reanchors);

    // Allocations per measured operation (ticks and runs), workers
    // included, over the traced phases.
    std::uint64_t allocs = 0, measured_ops = 0;
    for (const auto* o : {&main_out, &side_out}) {
      if (*o) {
        allocs += (*o)->allocs;
        measured_ops += (*o)->ticks;
      }
    }
    for (const auto* o : {&roll_out, &roll_side}) {
      if (*o) {
        allocs += (*o)->allocs;
        measured_ops += (*o)->runs;
      }
    }
    pl["allocs_per_op"] = measured_ops > 0 ? static_cast<double>(allocs) /
                                                 static_cast<double>(measured_ops)
                                           : 0.0;
    // Tracing overhead on the main operation: traced minus untraced median.
    if (spec->main == Spec::kRollout) {
      pl["trace.overhead_us"] =
          (med(roll_out->run_ns) - med(roll_base->run_ns)) / 1e3;
    } else {
      pl["trace.overhead_us"] =
          (med(main_out->tick_ns) - med(main_base->tick_ns)) / 1e3;
    }
    if (!opt.span_path.empty() && !tr.write_csv(opt.span_path)) {
      ops.fail("cannot write spans to " + opt.span_path);
    }
    result.context.push_back(
        {"spans", static_cast<double>(tr.spans().size()), "count"});
    result.metrics = in_order(pl, kPerLayer, std::size(kPerLayer));
  } else {
    result.metrics = in_order(v, kEndToEnd, std::size(kEndToEnd));
  }
  result.attempted = ops.attempted;
  result.failed = ops.failed;
  result.failures = ops.failures;
  result.context.push_back(
      {"failed_ratio",
       ops.attempted > 0 ? static_cast<double>(ops.failed) /
                               static_cast<double>(ops.attempted)
                         : 1.0,
       "ratio"});
  return result;
}

}  // namespace perfbench
