// Google-benchmark micro benchmarks for the numeric and MOR kernels that
// dominate the framework's cost profile.
#include <benchmark/benchmark.h>

#include <random>

#include "circuit/technology.hpp"
#include "interconnect/coupled_lines.hpp"
#include "mor/pact.hpp"
#include "mor/poleres.hpp"
#include "mor/prima.hpp"
#include "mor/variational.hpp"
#include "numeric/eigen_real.hpp"
#include "numeric/eigen_sym.hpp"
#include "numeric/lu.hpp"
#include "numeric/sparse.hpp"

namespace {

using namespace lcsf;
using numeric::Matrix;
using numeric::Vector;

Matrix random_spd(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) a(i, j) = u(rng);
  }
  Matrix s = a.transposed() * a;
  for (std::size_t i = 0; i < n; ++i) s(i, i) += double(n);
  return s;
}

void BM_DenseLu(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Matrix a = random_spd(n, 1);
  const Vector b(n, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(numeric::LuFactorization(a).solve(b));
  }
}
BENCHMARK(BM_DenseLu)->Arg(8)->Arg(32)->Arg(128);

void BM_DenseLuRefactor(benchmark::State& state) {
  // The pooled hot-path variant: same factorization + solve, but storage
  // and pivoting scratch are reused across iterations (Matrix shapes are
  // per-sample invariant in the Monte-Carlo loop).
  const auto n = static_cast<std::size_t>(state.range(0));
  const Matrix a = random_spd(n, 1);
  const Vector b(n, 1.0);
  numeric::LuFactorization lu;
  Vector x;
  for (auto _ : state) {
    lu.refactor(a);
    lu.solve_into(b, x);
    benchmark::DoNotOptimize(x.data());
  }
}
BENCHMARK(BM_DenseLuRefactor)->Arg(8)->Arg(32)->Arg(128);

void BM_SparseLuBanded(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  numeric::SparseMatrix a(n);
  for (std::size_t i = 0; i < n; ++i) {
    a.add(i, i, 4.0);
    if (i + 1 < n) {
      a.add(i, i + 1, -1.0);
      a.add(i + 1, i, -1.0);
    }
    if (i + 4 < n) {
      a.add(i, i + 4, -0.5);
      a.add(i + 4, i, -0.5);
    }
  }
  const Vector b(n, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(numeric::SparseLu(a).solve(b));
  }
}
BENCHMARK(BM_SparseLuBanded)->Arg(256)->Arg(1024)->Arg(4096);

void BM_SparseLuRefactor(benchmark::State& state) {
  // Numeric-only refactorization against the frozen fill pattern -- the
  // per-Newton-iteration cost of the SPICE baseline after PR 4.
  const auto n = static_cast<std::size_t>(state.range(0));
  numeric::SparseMatrix a(n);
  for (std::size_t i = 0; i < n; ++i) {
    a.add(i, i, 4.0);
    if (i + 1 < n) {
      a.add(i, i + 1, -1.0);
      a.add(i + 1, i, -1.0);
    }
    if (i + 4 < n) {
      a.add(i, i + 4, -0.5);
      a.add(i + 4, i, -0.5);
    }
  }
  const Vector b(n, 1.0);
  numeric::SparseLu lu(a);
  Vector x;
  for (auto _ : state) {
    lu.refactor(a);
    lu.solve_into(b, x);
    benchmark::DoNotOptimize(x.data());
  }
}
BENCHMARK(BM_SparseLuRefactor)->Arg(256)->Arg(1024)->Arg(4096);

void BM_EigenSymJacobi(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Matrix a = random_spd(n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(numeric::eigen_symmetric_jacobi(a));
  }
}
BENCHMARK(BM_EigenSymJacobi)->Arg(16)->Arg(64);

void BM_EigenSymTridiagonal(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Matrix a = random_spd(n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(numeric::eigen_symmetric_tridiagonal(a));
  }
}
BENCHMARK(BM_EigenSymTridiagonal)->Arg(16)->Arg(64)->Arg(256);

void BM_EigenRealNonsymmetric(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::mt19937 rng(3);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) a(i, j) = u(rng);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(numeric::eigen_real(a));
  }
}
BENCHMARK(BM_EigenRealNonsymmetric)->Arg(8)->Arg(16)->Arg(32);

void BM_EigenRealInto(benchmark::State& state) {
  // Scratch-pooled Hessenberg + hqr2: the per-sample eigen solve of the
  // pole/residue extraction without its allocations.
  const auto n = static_cast<std::size_t>(state.range(0));
  std::mt19937 rng(3);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) a(i, j) = u(rng);
  }
  numeric::RealEigenScratch scratch;
  numeric::RealEigen eig;
  for (auto _ : state) {
    numeric::eigen_real_into(a, scratch, eig);
    benchmark::DoNotOptimize(eig.values.data());
  }
}
BENCHMARK(BM_EigenRealInto)->Arg(8)->Arg(16)->Arg(32);

interconnect::PortedPencil wire_pencil(std::size_t segments) {
  interconnect::CoupledLineSpec spec;
  spec.num_lines = 2;
  spec.length = double(segments) * 1e-6;
  spec.segment_length = 1e-6;
  spec.geometry = circuit::technology_180nm().wire;
  auto b = interconnect::build_coupled_lines(spec);
  auto pencil = interconnect::build_ported_pencil(b.netlist, b.ports());
  return mor::with_port_conductance(std::move(pencil),
                                    Vector{1e-3, 1e-3, 0.0, 0.0});
}

void BM_PactReduce(benchmark::State& state) {
  const auto pencil = wire_pencil(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(mor::pact_reduce(pencil, mor::PactOptions{6}));
  }
}
BENCHMARK(BM_PactReduce)->Arg(25)->Arg(100)->Arg(250);

void BM_PrimaReduce(benchmark::State& state) {
  const auto pencil = wire_pencil(static_cast<std::size_t>(state.range(0)));
  mor::PrimaOptions opt;
  opt.block_moments = 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mor::prima_reduce(pencil, opt));
  }
}
BENCHMARK(BM_PrimaReduce)->Arg(25)->Arg(100)->Arg(250);

void BM_PoleResidueExtraction(benchmark::State& state) {
  const auto pencil = wire_pencil(100);
  const auto rom = mor::pact_reduce(
      pencil,
      mor::PactOptions{static_cast<std::size_t>(state.range(0))}).model;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mor::extract_pole_residue(rom));
  }
}
BENCHMARK(BM_PoleResidueExtraction)->Arg(4)->Arg(8)->Arg(16);

void BM_PoleResidueExtractionPooled(benchmark::State& state) {
  // Workspace overload: the big-ticket intermediates (LU, eigen scratch,
  // complex solves) come from the pooled workspace.
  const auto pencil = wire_pencil(100);
  const auto rom = mor::pact_reduce(
      pencil,
      mor::PactOptions{static_cast<std::size_t>(state.range(0))}).model;
  mor::PoleResidueWorkspace ws;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mor::extract_pole_residue(rom, ws));
  }
}
BENCHMARK(BM_PoleResidueExtractionPooled)->Arg(4)->Arg(8)->Arg(16);

}  // namespace

BENCHMARK_MAIN();
