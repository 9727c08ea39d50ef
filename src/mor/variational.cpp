#include "mor/variational.hpp"

#include <cstdint>
#include <stdexcept>
#include <utility>

#include "numeric/fp_compare.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"

namespace lcsf::mor {

using numeric::Matrix;
using numeric::Vector;

VariationalRom::VariationalRom(ReducedModel nominal,
                               std::vector<ReducedModel> sensitivity)
    : nominal_(std::move(nominal)), sensitivity_(std::move(sensitivity)) {
  for (const ReducedModel& s : sensitivity_) {
    if (s.order() != nominal_.order() ||
        s.num_ports != nominal_.num_ports) {
      throw std::invalid_argument("VariationalRom: inconsistent library");
    }
  }
}

ReducedModel VariationalRom::evaluate(const Vector& w) const {
  ReducedModel m;
  evaluate_into(w, m);
  return m;
}

void VariationalRom::evaluate_into(const Vector& w, ReducedModel& out) const {
  const Vector* const wp = &w;
  ReducedModel* const mp = &out;
  evaluate_into_batch({&wp, 1}, {&mp, 1});
}

void VariationalRom::evaluate_into_batch(
    std::span<const Vector* const> w,
    std::span<ReducedModel* const> out) const {
  if (w.size() != out.size()) {
    throw std::invalid_argument(
        "VariationalRom::evaluate_into_batch: lane count mismatch");
  }
  for (const Vector* wb : w) {
    if (wb->size() != sensitivity_.size()) {
      throw std::invalid_argument("VariationalRom::evaluate: wrong w size");
    }
  }
  obs::add_counter("mor.rom_evaluations",
                   static_cast<std::uint64_t>(w.size()));
  for (ReducedModel* m : out) {
    m->num_ports = nominal_.num_ports;
    // Copy-assignment reuses m's heap blocks when shapes already match.
    m->g = nominal_.g;
    m->c = nominal_.c;
    m->b = nominal_.b;
  }
  // Direction-outer: each sensitivity block is streamed through the cache
  // once per batch. Per lane this is the ascending-i sequence
  // m += w[i] * d_i, skipping exact-zero w[i].
  const std::size_t ng = nominal_.g.rows() * nominal_.g.cols();
  const std::size_t nc = nominal_.c.rows() * nominal_.c.cols();
  const std::size_t nb = nominal_.b.rows() * nominal_.b.cols();
  for (std::size_t i = 0; i < sensitivity_.size(); ++i) {
    const ReducedModel& d = sensitivity_[i];
    for (std::size_t l = 0; l < w.size(); ++l) {
      const double wi = (*w[l])[i];
      if (numeric::exact_zero(wi)) continue;
      numeric::axpy_batch(wi, d.g.data(), out[l]->g.data(), ng);
      numeric::axpy_batch(wi, d.c.data(), out[l]->c.data(), nc);
      numeric::axpy_batch(wi, d.b.data(), out[l]->b.data(), nb);
    }
  }
}

VariationalRom build_variational_rom(const PencilFamily& family,
                                     std::size_t num_params,
                                     const VariationalOptions& opt,
                                     PactMemo* memo) {
  obs::ScopedSpan span("mor.characterize");
  if (opt.fd_step <= 0.0) {
    throw std::invalid_argument("build_variational_rom: fd_step must be > 0");
  }
  const Vector w0(num_params, 0.0);

  ReducedModel nominal;
  // Reduction applied to each perturbed pencil sample. Every pencil is
  // handed over and dies inside its reduction, so at most one dense
  // pencil is held at a time.
  std::function<ReducedModel(interconnect::PortedPencil)> project;

  if (opt.method == ReductionMethod::kPact) {
    PactResult r = pact_reduce(family(w0), opt.pact, memo);
    nominal = std::move(r.model);
    if (opt.library == LibraryMode::kFullReduction) {
      project = [pact = opt.pact, memo](interconnect::PortedPencil p) {
        return pact_reduce(std::move(p), pact, memo).model;
      };
    } else {
      project = [basis = std::move(r.basis)](interconnect::PortedPencil p) {
        return pact_reduce_with_basis(std::move(p), basis);
      };
    }
  } else {
    PrimaResult r = prima_reduce(family(w0), opt.prima);
    nominal = std::move(r.model);
    if (opt.library == LibraryMode::kFullReduction) {
      project = [prima = opt.prima](interconnect::PortedPencil p) {
        return prima_reduce(p, prima).model;
      };
    } else {
      project = [x = std::move(r.projection)](interconnect::PortedPencil p) {
        return prima_project(p, x);
      };
    }
  }

  std::vector<ReducedModel> sens;
  sens.reserve(num_params);
  for (std::size_t i = 0; i < num_params; ++i) {
    Vector wp = w0, wm = w0;
    wp[i] = opt.fd_step;
    wm[i] = -opt.fd_step;
    const ReducedModel mp = project(family(wp));
    const ReducedModel mm = project(family(wm));
    ReducedModel d;
    d.num_ports = nominal.num_ports;
    const double inv2h = 1.0 / (2.0 * opt.fd_step);
    d.g = (mp.g - mm.g) * inv2h;
    d.c = (mp.c - mm.c) * inv2h;
    d.b = (mp.b - mm.b) * inv2h;
    sens.push_back(std::move(d));
  }
  return VariationalRom(std::move(nominal), std::move(sens));
}

PencilFamily scalar_family(
    std::function<interconnect::PortedPencil(double)> f) {
  return [f = std::move(f)](const Vector& w) {
    if (w.size() != 1) {
      throw std::invalid_argument("scalar_family: expected 1 parameter");
    }
    return f(w[0]);
  };
}

interconnect::PortedPencil with_port_conductance(
    interconnect::PortedPencil pencil, const Vector& gout) {
  if (gout.size() != pencil.num_ports) {
    throw std::invalid_argument("with_port_conductance: size mismatch");
  }
  for (std::size_t k = 0; k < gout.size(); ++k) {
    if (gout[k] < 0.0) {
      throw std::invalid_argument("with_port_conductance: negative G");
    }
    pencil.g(k, k) += gout[k];
  }
  return pencil;
}

}  // namespace lcsf::mor
