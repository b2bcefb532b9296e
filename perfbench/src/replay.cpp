/// Layer replays for the traced run: one shard's shapes pushed through the
/// nn and core public functions, each call under its own span.

#include <sstream>

#include "core/cell_params.hpp"
#include "core/model_io.hpp"
#include "nn/dense.hpp"
#include "nn/panel_dispatch.hpp"
#include "phases.hpp"

namespace perfbench {

SpanNames::SpanNames(Tracer& t)
    : tick(t.name("tick")),
      rollout(t.name("rollout")),
      step(t.name("FleetEngine::step")),
      sharded_step(t.name("ShardedFleet::step")),
      run_into(t.name("RolloutEngine::run_into")),
      swap(t.name("swap_model")),
      publish(t.name("publish_*")),
      dense{t.name("nn.dense.l1"), t.name("nn.dense.l2"),
            t.name("nn.dense.l3"), t.name("nn.dense.l4")},
      dense_b1(t.name("nn.dense.b1")),
      scaler(t.name("nn.scaler.transform_columns_into")),
      predict(t.name("core.predict")),
      estimate(t.name("core.estimate")),
      eq1(t.name("core.eq1_predict")),
      save_model(t.name("core.save_model")),
      load_model(t.name("core.load_model")) {}

namespace {

template <typename T>
struct DenseStack {
  std::vector<nn::MatrixT<T>> w, b;
  std::vector<nn::MatrixT<T>> act;  ///< per-layer outputs (scratch)

  void load(const nn::Mlp& mlp) {
    for (std::size_t i = 0; i < mlp.num_layers(); ++i) {
      const auto* dense = dynamic_cast<const nn::Dense*>(&mlp.layer(i));
      if (dense == nullptr) continue;
      const nn::Matrix& wd = dense->weights();
      const nn::Matrix& bd = dense->bias();
      nn::MatrixT<T> wt(wd.rows(), wd.cols());
      for (std::size_t r = 0; r < wd.rows(); ++r) {
        for (std::size_t c = 0; c < wd.cols(); ++c) {
          wt(r, c) = static_cast<T>(wd(r, c));
        }
      }
      nn::MatrixT<T> bt(1, bd.cols());
      for (std::size_t c = 0; c < bd.cols(); ++c) {
        bt(0, c) = static_cast<T>(bd(0, c));
      }
      w.push_back(std::move(wt));
      b.push_back(std::move(bt));
    }
    act.resize(w.size());
  }

  /// Runs layer k on `in` (in_f x batch) into act[k].
  const nn::MatrixT<T>& layer(std::size_t k, const nn::MatrixT<T>& in,
                              std::size_t batch) {
    act[k].resize(w[k].cols(), batch);
    nn::simd::dense_columns<T>(in.data().data(), w[k].data().data(),
                               b[k].data().data(), act[k].data().data(),
                               w[k].rows(), w[k].cols(), batch);
    return act[k];
  }
};

template <typename T>
struct Cache {
  const core::TwoBranchNet* net = nullptr;
  std::size_t batch = 0;
  DenseStack<T> branch1, branch2;
  nn::ScalerStatsT<T> scaler2;
  std::unique_ptr<core::TwoBranchSnapshotT<T>> snapshot;
  core::InferenceWorkspaceT<T> ws;
  core::InferenceWorkspace ws64;
  nn::MatrixT<T> panel, scaled, sensors;
  nn::Matrix panel64, sensors64;
  std::vector<double> eq1_out;

  void load(const core::TwoBranchNet& n) {
    net = &n;
    branch1 = {};
    branch2 = {};
    branch1.load(n.branch1());
    branch2.load(n.branch2());
    scaler2 = nn::ScalerStatsT<T>::from(n.scaler2());
    snapshot = std::make_unique<core::TwoBranchSnapshotT<T>>(n);
  }
};

}  // namespace

struct ReplayCache {
  Cache<double> f64;
  Cache<float> f32;
};

namespace {

double span_ns(const Tracer& t) {
  const stats::Span& s = t.spans().back();
  return static_cast<double>(s.end - s.start);
}

template <typename T>
void replay(Env& env, Cache<T>& c, std::size_t batch, std::size_t drained,
            Replays& out) {
  Tracer& tr = env.tracer;
  const SpanNames& nm = env.names;
  const core::TwoBranchNet& net = *env.nets[env.current];
  out.batch = batch;

  c.panel.resize(4, batch);
  c.panel64.resize(4, batch);
  for (std::size_t j = 0; j < batch; ++j) {
    const double x = static_cast<double>(j % 97) / 97.0;
    const double v[4] = {0.2 + 0.6 * x, -3.0 + 4.0 * x, 10.0 + 20.0 * x,
                         30.0 + 300.0 * x};
    for (std::size_t f = 0; f < 4; ++f) {
      c.panel(f, j) = static_cast<T>(v[f]);
      c.panel64(f, j) = v[f];
    }
  }
  const std::size_t spans_before = tr.spans().size();
  {
    const Tracer::Scope s(tr, nm.scaler);
    c.scaler2.transform_columns_into(c.panel, c.scaled);
  }
  if (tr.spans().size() == spans_before) return;  // span buffer full
  out.scaler.push_back(span_ns(tr));
  const nn::MatrixT<T>* in = &c.scaled;
  for (std::size_t k = 0; k < c.branch2.w.size() && k < 4; ++k) {
    {
      const Tracer::Scope s(tr, nm.dense[k]);
      in = &c.branch2.layer(k, *in, batch);
    }
    out.dense[k].push_back(span_ns(tr));
  }
  // Branch 1 at the same batch: standardized sensor panel, all its dense
  // layers under one span.
  c.sensors.resize(3, batch);
  for (std::size_t j = 0; j < batch; ++j) {
    c.sensors(0, j) = static_cast<T>(0.1 * static_cast<double>(j % 7));
    c.sensors(1, j) = static_cast<T>(-0.5);
    c.sensors(2, j) = static_cast<T>(0.2);
  }
  {
    const Tracer::Scope s(tr, nm.dense_b1);
    const nn::MatrixT<T>* a = &c.sensors;
    for (std::size_t k = 0; k < c.branch1.w.size(); ++k) {
      a = &c.branch1.layer(k, *a, batch);
    }
  }
  out.dense_b1.push_back(span_ns(tr));
  if constexpr (sizeof(T) == sizeof(double)) {
    const Tracer::Scope s(tr, nm.predict);
    (void)net.predict_batch_columns(c.panel64, c.ws64);
  } else {
    const Tracer::Scope s(tr, nm.predict);
    (void)c.snapshot->predict_columns(c.panel, c.ws);
  }
  out.predict.push_back(span_ns(tr));
  if (drained > 0) {
    out.estimate_batch = drained;
    if constexpr (sizeof(T) == sizeof(double)) {
      c.sensors64.resize(drained, 3);
      for (std::size_t i = 0; i < drained; ++i) {
        c.sensors64(i, 0) = 3.2 + 0.001 * static_cast<double>(i % 500);
        c.sensors64(i, 1) = -1.5;
        c.sensors64(i, 2) = 25.0;
      }
      const Tracer::Scope s(tr, nm.estimate);
      (void)net.estimate_batch(c.sensors64, c.ws64);
    } else {
      const std::size_t padded = std::max(drained, nn::kColumnsMinBatch);
      c.sensors.resize(3, padded);
      for (std::size_t j = 0; j < padded; ++j) {
        c.sensors(0, j) = static_cast<T>(3.2 + 0.001 * (j % 500));
        c.sensors(1, j) = static_cast<T>(-1.5);
        c.sensors(2, j) = static_cast<T>(25.0);
      }
      const Tracer::Scope s(tr, nm.estimate);
      (void)c.snapshot->estimate_columns(c.sensors, c.ws);
    }
    out.estimate.push_back(span_ns(tr));
  }
  c.eq1_out.resize(batch);
  const core::CellParams params{.capacity_ah = 2.9, .coulombic_eff = 0.99};
  {
    const Tracer::Scope s(tr, nm.eq1);
    for (std::size_t j = 0; j < batch; ++j) {
      c.eq1_out[j] = core::eq1_predict(c.panel64(0, j), c.panel64(1, j),
                                       c.panel64(3, j), params);
    }
  }
  out.eq1.push_back(span_ns(tr) / static_cast<double>(batch));
}

}  // namespace

void replay_layers(Env& env, std::size_t batch, std::size_t drained,
                   Replays& out) {
  if (!env.tracer.enabled() || batch == 0) return;
  if (!out.cache) out.cache = std::make_shared<ReplayCache>();
  const auto run = [&](auto& cache) {
    const core::TwoBranchNet& net = *env.nets[env.current];
    if (cache.net != &net || cache.batch != batch) {
      // A fresh cache first touches its buffers: one untimed pass, so the
      // recorded replays see warm buffers like the engine's own ticks.
      cache.load(net);
      cache.batch = batch;
      Replays discard;
      replay(env, cache, batch, drained, discard);
    }
    replay(env, cache, batch, drained, out);
  };
  if (env.precision == core::Precision::kFloat32) {
    run(out.cache->f32);
  } else {
    run(out.cache->f64);
  }
}

void replay_model_io(Env& env, Replays& out) {
  if (!env.tracer.enabled()) return;
  std::ostringstream os;
  {
    const Tracer::Scope s(env.tracer, env.names.save_model);
    core::save_model(os, *env.nets[env.current]);
  }
  out.save_model.push_back(span_ns(env.tracer));
  std::istringstream is(os.str());
  core::TwoBranchNet loaded;
  {
    const Tracer::Scope s(env.tracer, env.names.load_model);
    loaded = core::load_model(is);
  }
  out.load_model.push_back(span_ns(env.tracer));
}

}  // namespace perfbench
