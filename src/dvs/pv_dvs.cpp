// PV-DVS on the columnar DVS graph (DESIGN.md §12).
//
// Two data-oriented changes relative to the frozen baseline
// (bench/reference_kernels.cpp), both value-preserving:
//
//  - all scratch (ef/lf, descent cache, topo positions) lives in a
//    thread-local bump arena reset per call;
//  - after a greedy step lengthens node b at topological position pb,
//    only the ranges the step can reach are recomputed: earliest finishes
//    over positions [pb, n) and latest finishes over [0, pb). ef[u] is the
//    max over its predecessors plus t[u] and lf[u] the min of its
//    deadline and lf[s] - t[s] over its successors, and only t[b] changed,
//    so every value outside those ranges is already what a full pass
//    would compute; inside them, a node whose operands did not move
//    recomputes to the same double. The same two range passes run the
//    initial full passes, so the result is bit-identical to full
//    re-propagation after every step (the DVS golden in
//    tests/core/cosynth_test.cpp pins it).
#include "dvs/pv_dvs.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "common/arena.hpp"
#include "dvs/voltage_model.hpp"
#include "model/architecture.hpp"

namespace mmsyn {

double continuous_energy(double e_nom, double slowdown, double vmax,
                         double vt) {
  if (slowdown <= 1.0) return e_nom;
  const VoltageModel model(vmax, vt);
  const double v = model.voltage_for_slowdown(slowdown);
  return e_nom * model.energy_factor(v);
}

double discrete_energy(double e_nom, double tmin, double target_time,
                       const std::vector<double>& levels, double vt) {
  // No levels at all means there is nothing to scale with: the activity
  // runs (and is priced) at nominal. Guarded explicitly — `levels.back()`
  // on an empty vector is undefined behaviour in release builds.
  if (levels.empty()) return e_nom;
  const double vmax = levels.back();
  if (target_time <= tmin || levels.size() == 1) return e_nom;
  const VoltageModel model(vmax, vt);

  // Time and energy of running the whole activity at one level.
  auto time_at = [&](double v) { return tmin * model.slowdown(v); };
  auto energy_at = [&](double v) { return e_nom * model.energy_factor(v); };

  // If even the lowest level finishes within the target, use it outright
  // (the activity simply completes early).
  if (time_at(levels.front()) <= target_time)
    return energy_at(levels.front());

  // Find adjacent levels v_lo < v_hi with time_at(v_hi) <= target <
  // time_at(v_lo) and split the workload: fraction w at v_hi, (1-w) at
  // v_lo, chosen so the total time equals target_time exactly.
  for (std::size_t i = levels.size() - 1; i > 0; --i) {
    const double v_hi = levels[i];
    const double v_lo = levels[i - 1];
    const double t_hi = time_at(v_hi);
    const double t_lo = time_at(v_lo);
    if (t_hi <= target_time && target_time <= t_lo) {
      // Duplicate levels (normalised away by Architecture::add_pe, but
      // guarded here for direct callers) give a zero-width pair; the
      // whole activity then runs at that single level.
      if (t_lo - t_hi <= 0.0) return energy_at(v_hi);
      const double w = (t_lo - target_time) / (t_lo - t_hi);
      return w * energy_at(v_hi) + (1.0 - w) * energy_at(v_lo);
    }
  }
  // target_time < time at vmax can't happen (target >= tmin); fall back.
  return e_nom;
}

namespace {

Arena& dvs_arena() {
  thread_local Arena arena{1 << 16};
  return arena;
}

/// Earliest finish times of the nodes at topological positions
/// [begin, end) under the current durations; their predecessors sit at
/// earlier positions.
void forward_pass(const DvsGraph& g, const double* t, double* ef,
                  std::size_t begin, std::size_t end) {
  for (std::size_t i = begin; i < end; ++i) {
    const auto ui = static_cast<std::size_t>(g.topo[i]);
    double start = 0.0;
    for (std::int32_t p : g.preds(ui))
      start = std::max(start, ef[static_cast<std::size_t>(p)]);
    ef[ui] = start + t[ui];
  }
}

/// Latest allowed finish times of the nodes at topological positions
/// [begin, end), walked in reverse; their successors sit at later
/// positions.
void backward_pass(const DvsGraph& g, const double* t, double* lf,
                   std::size_t begin, std::size_t end) {
  for (std::size_t i = end; i-- > begin;) {
    const auto ui = static_cast<std::size_t>(g.topo[i]);
    double limit = g.deadline[ui];
    for (std::int32_t s : g.succs(ui)) {
      const auto si = static_cast<std::size_t>(s);
      limit = std::min(limit, lf[si] - t[si]);
    }
    lf[ui] = limit;
  }
}

}  // namespace

PvDvsResult run_pv_dvs(const DvsGraph& g, const Architecture& arch,
                       const PvDvsOptions& options,
                       const std::vector<double>* pe_idle_penalty) {
  const std::size_t n = g.node_count();
  PvDvsResult result;
  result.scaled_time.resize(n);
  result.voltage.assign(n, 0.0);
  result.energy.resize(n);

  Arena& arena = dvs_arena();
  arena.reset();

  // Per-node voltage model parameters; `levels` points at the owning PE's
  // level vector (no per-call copies).
  double* model_vmax = arena.alloc_filled<double>(n, 0.0);
  double* model_vt = arena.alloc_filled<double>(n, 0.0);
  const std::vector<double>** model_levels =
      arena.alloc_filled<const std::vector<double>*>(n, nullptr);
  std::int32_t* scalable = arena.alloc<std::int32_t>(n);
  std::size_t scalable_count = 0;

  for (std::size_t i = 0; i < n; ++i) {
    result.scaled_time[i] = g.tmin[i];
    result.nominal_energy += g.e_nom[i];
    if (g.scalable[i] && g.pe[i] >= 0) {
      const Pe& pe = arch.pe(PeId{static_cast<PeId::value_type>(g.pe[i])});
      model_vmax[i] = pe.vmax();
      model_vt[i] = pe.threshold_voltage;
      model_levels[i] = &pe.voltage_levels;
      result.voltage[i] = pe.vmax();
      if (g.tmin[i] > 0.0 && g.e_nom[i] > 0.0)
        scalable[scalable_count++] = static_cast<std::int32_t>(i);
    } else if (g.pe[i] >= 0) {
      result.voltage[i] =
          arch.pe(PeId{static_cast<PeId::value_type>(g.pe[i])}).vmax();
    }
  }

  double* t = result.scaled_time.data();
  double* ef = arena.alloc_filled<double>(n, 0.0);
  double* lf = arena.alloc_filled<double>(n, 0.0);

  auto node_energy_continuous = [&](std::size_t i, double ti) {
    if (g.tmin[i] <= 0.0) return g.e_nom[i];
    return continuous_energy(g.e_nom[i], ti / g.tmin[i], model_vmax[i],
                             model_vt[i]);
  };

  if (scalable_count > 0) {
    const double gain_floor =
        std::max(result.nominal_energy, 1e-30) * options.min_relative_gain;
    const int max_iterations =
        options.max_iterations_per_node * static_cast<int>(scalable_count);

    // Cached energy-descent rate -dE/dt per scalable node, refreshed only
    // when the node's time changes — the inverse-voltage bisection behind
    // it is the algorithm's dominant cost.
    double* descent = arena.alloc_filled<double>(n, 0.0);
    auto refresh_descent = [&](std::size_t ui) {
      const double h = 0.01 * g.tmin[ui];
      descent[ui] = (node_energy_continuous(ui, t[ui]) -
                     node_energy_continuous(ui, t[ui] + h)) /
                    h;
    };
    for (std::size_t k = 0; k < scalable_count; ++k)
      refresh_descent(static_cast<std::size_t>(scalable[k]));

    // Topo position of each node: where a step's re-propagation starts.
    std::int32_t* pos = arena.alloc<std::int32_t>(n);
    for (std::size_t i = 0; i < n; ++i)
      pos[static_cast<std::size_t>(g.topo[i])] = static_cast<std::int32_t>(i);

    forward_pass(g, t, ef, 0, n);
    backward_pass(g, t, lf, 0, n);

    for (int iter = 0; iter < max_iterations; ++iter) {
      double best_gain = 0.0;
      std::int32_t best_node = -1;
      double best_step = 0.0;
      for (std::size_t k = 0; k < scalable_count; ++k) {
        const auto ui = static_cast<std::size_t>(scalable[k]);
        const double slack = lf[ui] - ef[ui];
        const double cap = g.tmin[ui] * g.max_slowdown[ui] - t[ui];
        const double avail = std::min(slack, cap);
        if (avail <= 1e-12 * std::max(1.0, g.tmin[ui])) continue;
        const double step = options.step_fraction * avail;
        double gain = descent[ui] * step;  // linearised estimate
        // DPM coupling: slack consumed here is idle time a sleep state
        // could have recovered — charge its watts-equivalent cost. The
        // null branch keeps the reference path bit-identical and free.
        if (pe_idle_penalty != nullptr && g.pe[ui] >= 0)
          gain -= (*pe_idle_penalty)[static_cast<std::size_t>(g.pe[ui])] * step;
        if (gain > best_gain) {
          best_gain = gain;
          best_node = scalable[k];
          best_step = step;
        }
      }
      if (best_node < 0 || best_gain < gain_floor) break;
      const auto bi = static_cast<std::size_t>(best_node);
      t[bi] += best_step;
      refresh_descent(bi);
      const auto pb = static_cast<std::size_t>(pos[bi]);
      forward_pass(g, t, ef, pb, n);
      backward_pass(g, t, lf, 0, pb);
    }
  } else {
    forward_pass(g, t, ef, 0, n);
  }

  // Final timing check and energy accounting. ef is kept exact by the
  // ranged passes, so no closing full pass is needed.
  result.deadlines_met = true;
  for (std::size_t i = 0; i < n; ++i) {
    if (ef[i] > g.deadline[i] * (1.0 + 1e-9) + 1e-12)
      result.deadlines_met = false;
    if (!g.scalable[i] || g.tmin[i] <= 0.0 || g.e_nom[i] <= 0.0) {
      result.energy[i] = g.e_nom[i];
    } else {
      const VoltageModel model(model_vmax[i], model_vt[i]);
      result.voltage[i] = model.voltage_for_slowdown(t[i] / g.tmin[i]);
      result.energy[i] =
          options.discrete_voltages
              ? discrete_energy(g.e_nom[i], g.tmin[i], t[i], *model_levels[i],
                                model_vt[i])
              : g.e_nom[i] * model.energy_factor(result.voltage[i]);
    }
    result.total_energy += result.energy[i];
  }
  return result;
}

}  // namespace mmsyn
