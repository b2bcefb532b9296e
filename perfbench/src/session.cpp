/// The fleet session phase: closed-loop back-to-back ticks with optional
/// open-loop telemetry and periodic model swaps, on FleetEngine or
/// ShardedFleet, every tick checked against the scalar core reference.

#include <cmath>
#include <cstdlib>
#include <string>

#include "alloc_counter.hpp"
#include "core/cell_params.hpp"
#include "phases.hpp"
#include "util/math.hpp"

namespace perfbench {

void publish(serve::FleetEngine& e, const Msg& m) {
  serve::Mailbox& mb = e.mailbox();
  switch (m.kind) {
    case MsgKind::kSensor: mb.publish_sensors(m.cell, {m.a, m.b, m.c}); break;
    case MsgKind::kWorkload: mb.publish_workload(m.cell, {m.a, m.b, m.c}); break;
    case MsgKind::kParam: mb.publish_params(m.cell, {m.a, m.b, m.c}); break;
  }
}

namespace {

void publish(serve::ShardedFleet& f, const Msg& m) {
  switch (m.kind) {
    case MsgKind::kSensor: f.publish_sensors(m.cell, {m.a, m.b, m.c}); break;
    case MsgKind::kWorkload: f.publish_workload(m.cell, {m.a, m.b, m.c}); break;
    case MsgKind::kParam: f.publish_params(m.cell, {m.a, m.b, m.c}); break;
  }
}

std::uint16_t step_name(const serve::FleetEngine&, const SpanNames& n) {
  return n.step;
}
std::uint16_t step_name(const serve::ShardedFleet&, const SpanNames& n) {
  return n.sharded_step;
}

/// A valid message still pending after the tick that should have drained
/// it was never applied. Only the in-process mailbox exposes this.
bool still_pending(serve::FleetEngine& e, std::size_t cell) {
  return e.mailbox().pending(cell);
}
bool still_pending(serve::ShardedFleet&, std::size_t) { return false; }

/// Every worker serves the parent's latest model version.
bool versions_current(const serve::FleetEngine&) { return true; }
bool versions_current(const serve::ShardedFleet& f) {
  for (std::size_t w = 0; w < f.num_workers(); ++w) {
    if (f.worker_model_version(w) != f.model_version()) return false;
  }
  return true;
}

std::uint64_t worker_allocs(const serve::FleetEngine&) { return 0; }
std::uint64_t worker_allocs(const serve::ShardedFleet& f) {
  std::uint64_t n = 0;
  for (std::size_t w = 0; w < f.num_workers(); ++w) {
    n += f.worker_allocs_last_command(w);
  }
  return n;
}

std::uint64_t dropped(const serve::IngestStats& s, int kind) {
  switch (kind) {
    case 0: return s.dropped_sensor_reports;
    case 1: return s.dropped_workload_overrides;
    default: return s.dropped_param_updates;
  }
}

struct Pending {
  const Msg* msg;
  std::int64_t due;
};

template <class Engine>
SessionOut session(Engine& engine, Env& env, Mirror& mirror,
                   const std::vector<nn::Matrix>& rows,
                   const SessionConfig& config, Replays& replays) {
  SessionOut out;
  const std::size_t cells = engine.num_cells();
  const bool f32 = env.precision == core::Precision::kFloat32;
  Tracer& tr = env.tracer;
  Ops& ops = env.ops;
  const MsgPool* pool = config.ingest;

  // This tick's surviving message per (kind, cell): index into `pend`.
  std::vector<std::int32_t> slot[kNumKinds];
  if (pool != nullptr) {
    for (auto& s : slot) s.assign(cells, -1);
  }
  std::vector<Pending> due_now, pend;
  std::vector<std::uint32_t> pend_index;
  std::vector<std::size_t> sample;
  std::vector<double> pre;
  std::vector<double> tick_lags;
  core::InferenceWorkspace ws;
  std::size_t next_msg = 0;
  std::int64_t cycle = 0;
  serve::IngestStats before = engine.ingest_stats();

  const std::int64_t start = now_ns();
  const auto deadline =
      start + static_cast<std::int64_t>(config.seconds * 1e9);
  for (std::uint64_t t = 0;; ++t) {
    if (now_ns() >= deadline) break;
    // The first ticks of a phase warm caches and are checked, not timed.
    const bool measured = t >= kWarmupOps;
    tr.begin_tick();
    const Tracer::Scope tick_span(tr, env.names.tick);

    // Open loop: publish every message that has fallen due. The due
    // messages are collected first, so the publish span times the publish
    // calls alone; the bookkeeping follows outside it.
    pend.clear();
    pend_index.clear();
    due_now.clear();
    if (pool != nullptr) {
      const std::int64_t sent = now_ns();
      for (;;) {
        const Msg& m = pool->msgs[next_msg];
        const std::int64_t due = start + cycle * pool->cycle_ns + m.due;
        if (due > sent) break;
        due_now.push_back({&m, due});
        if (config.record) pend_index.push_back(static_cast<std::uint32_t>(next_msg));
        if (++next_msg == pool->msgs.size()) {
          next_msg = 0;
          ++cycle;
        }
      }
      if (!due_now.empty()) {
        const Tracer::Scope s(tr, env.names.publish);
        for (const Pending& p : due_now) publish(engine, *p.msg);
      }
      if (tr.enabled() && !due_now.empty()) {
        const stats::Span& s = tr.spans().back();
        if (s.name == env.names.publish) {
          out.publish_ns += static_cast<std::uint64_t>(s.end - s.start);
        }
      }
      for (const Pending& p : due_now) {
        if (measured) out.open_loop.record_sent(p.due, sent);
        const int kind = static_cast<int>(p.msg->kind);
        ++out.published[kind];
        std::int32_t& s_idx = slot[kind][p.msg->cell];
        if (s_idx >= 0) {
          ++out.superseded;  // latest wins
          pend[static_cast<std::size_t>(s_idx)] = p;
        } else {
          s_idx = static_cast<std::int32_t>(pend.size());
          pend.push_back(p);
        }
      }
    }
    if (config.record) out.log.push_back(pend_index);
    ops.attempted += due_now.size();

    bool swapped = false;
    std::int64_t t_swap = 0;
    if (config.swap_every > 0 && t > 0 && t % config.swap_every == 0) {
      env.current ^= 1;
      t_swap = now_ns();
      try {
        const Tracer::Scope s(tr, env.names.swap);
        engine.swap_model(*env.nets[env.current]);
      } catch (const std::exception& e) {
        ops.fail(std::string("swap_model threw: ") + e.what());
      }
      swapped = true;
      ++ops.attempted;
    }

    // Seeded sample: random cells plus cells re-anchoring this tick.
    sample.clear();
    for (std::size_t k = 0; k < kSampleCells; ++k) {
      sample.push_back(env.rng.index(cells));
    }
    for (std::size_t k = 0, added = 0;
         k < pend.size() && added < kSampleCells; ++k) {
      if (pend[k].msg->kind == MsgKind::kSensor) {
        sample.push_back(pend[k].msg->cell);
        ++added;
      }
    }
    pre.clear();
    for (const std::size_t c : sample) pre.push_back(engine.soc()[c]);

    const nn::Matrix& row = rows[t % rows.size()];
    const std::size_t allocs0 = alloc_count();
    const std::int64_t t0 = now_ns();
    try {
      const Tracer::Scope s(tr, step_name(engine, env.names));
      engine.step(row);
    } catch (const std::exception& e) {
      ops.fail(std::string("step threw: ") + e.what());
      ++ops.attempted;
      break;
    }
    const std::int64_t t1 = now_ns();
    if (measured) {
      out.allocs += (alloc_count() - allocs0) + worker_allocs(engine);
      out.tick_ns.push_back(static_cast<double>(t1 - t0));
      ++out.ticks;
      out.cells_advanced += cells;
    }
    ++ops.attempted;
    if (swapped) {
      out.swap_to_serve_ns.push_back(static_cast<double>(t1 - t_swap));
      out.after_swap_tick_ns.push_back(static_cast<double>(t1 - t0));
      if (!versions_current(engine)) ops.fail("worker serves a stale model");
    }

    // Surviving messages: applied (valid) or dropped (non-finite).
    std::uint64_t expect_drop[kNumKinds] = {0, 0, 0};
    std::size_t drained_sensors = 0;
    tick_lags.clear();
    for (const Pending& p : pend) {
      const Msg& m = *p.msg;
      const int kind = static_cast<int>(m.kind);
      if (!m.finite) {
        ++expect_drop[kind];
        continue;
      }
      if (still_pending(engine, m.cell)) {
        ops.fail("valid message never applied");
        continue;
      }
      ++out.applied;
      if (measured) {
        out.open_loop.record_applied(p.due, t1);
        tick_lags.push_back(static_cast<double>(t1 - p.due));
      }
      if (m.kind == MsgKind::kSensor) ++drained_sensors;
      if (m.kind == MsgKind::kParam) {
        mirror.params[m.cell] = {.capacity_ah = m.a, .coulombic_eff = m.b};
      } else if (m.kind == MsgKind::kWorkload) {
        mirror.override_active[m.cell] = 1;
        mirror.overrides[m.cell] = {m.a, m.b, m.c};
      }
    }
    if (!tick_lags.empty()) out.tick_lag_p50_ns.push_back(stats::median(tick_lags));
    const serve::IngestStats after = engine.ingest_stats();
    for (int k = 0; k < kNumKinds; ++k) {
      const std::uint64_t got = dropped(after, k) - dropped(before, k);
      out.nonfinite_dropped[k] += expect_drop[k];
      if (got != expect_drop[k]) {
        ops.fail("drop counter != non-finite messages injected",
                 got > expect_drop[k] ? got - expect_drop[k]
                                      : expect_drop[k] - got);
      }
    }
    before = after;

    // One-step scalar reference from the pre-tick state.
    const core::TwoBranchNet& net = *env.nets[env.current];
    for (std::size_t i = 0; i < sample.size(); ++i) {
      const std::size_t c = sample[i];
      double soc = pre[i];
      if (pool != nullptr) {
        const std::int32_t s_idx = slot[0][c];
        if (s_idx >= 0) {
          const Msg& m = *pend[static_cast<std::size_t>(s_idx)].msg;
          if (m.finite) soc = util::clamp01(net.estimate_soc(m.a, m.b, m.c, ws));
        }
      }
      double cur = row(c, 0), temp = row(c, 1), horizon = row(c, 2);
      if (mirror.override_active[c] != 0) {
        cur = mirror.overrides[c].avg_current;
        temp = mirror.overrides[c].avg_temp_c;
        horizon = mirror.overrides[c].horizon_s;
      }
      const double expect =
          mirror.physics[c] != 0
              ? core::eq1_predict_clamped(soc, cur, horizon, mirror.params[c])
              : util::clamp01(net.predict_soc(soc, cur, temp, horizon, ws));
      const double got = engine.soc()[c];
      const bool ok = f32 ? std::fabs(got - expect) <= 1e-4 : got == expect;
      if (!ok) {
        ops.fail("cell " + std::to_string(c) + " tick " + std::to_string(t) +
                 ": soc " + std::to_string(got) + " != reference " +
                 std::to_string(expect));
      }
    }
    for (const Pending& p : pend) {
      slot[static_cast<int>(p.msg->kind)][p.msg->cell] = -1;
    }

    if (tr.enabled()) {
      if (t % kReplayEvery == 0) {
        const std::size_t shards =
            (cells + config.shard_batch - 1) / config.shard_batch;
        replay_layers(env, config.shard_batch, drained_sensors / shards,
                      replays);
      }
      if (swapped) replay_model_io(env, replays);
    }
  }
  return out;
}

}  // namespace

SessionOut run_session(serve::FleetEngine& engine, Env& env, Mirror& mirror,
                       const std::vector<nn::Matrix>& rows,
                       const SessionConfig& config, Replays& replays) {
  return session(engine, env, mirror, rows, config, replays);
}

SessionOut run_session(serve::ShardedFleet& engine, Env& env, Mirror& mirror,
                       const std::vector<nn::Matrix>& rows,
                       const SessionConfig& config, Replays& replays) {
  return session(engine, env, mirror, rows, config, replays);
}

}  // namespace perfbench
