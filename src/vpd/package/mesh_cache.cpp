#include "vpd/package/mesh_cache.hpp"

#include <cstring>
#include <tuple>

namespace vpd {

std::shared_ptr<const AssembledMesh> assemble_mesh(Length width,
                                                   Length height,
                                                   std::size_t nx,
                                                   std::size_t ny,
                                                   double sheet_ohms) {
  return assemble_mesh(width, height, nx, ny, sheet_ohms, MeshPerturbation{});
}

std::shared_ptr<const AssembledMesh> assemble_mesh(
    Length width, Length height, std::size_t nx, std::size_t ny,
    double sheet_ohms, const MeshPerturbation& perturbation) {
  GridMesh mesh(width, height, nx, ny, sheet_ohms, perturbation);
  CsrMatrix laplacian(mesh.laplacian());
  IcSymbolic symbolic(laplacian);
  // The hierarchy depends only on (nx, ny): a perturbation rescales edge
  // conductances but never changes the grid, and the Galerkin values are
  // recomputed from the stamped operator at factor time.
  MgSymbolic hierarchy(nx, ny);
  return std::make_shared<const AssembledMesh>(
      AssembledMesh{std::move(mesh), std::move(laplacian), std::move(symbolic),
                    std::move(hierarchy)});
}

std::uint64_t mesh_perturbation_digest(const MeshPerturbation& perturbation) {
  if (perturbation.empty()) return 0;
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  const auto mix = [&h](double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (bits >> (8 * byte)) & 0xffU;
      h *= 0x100000001b3ULL;  // FNV prime
    }
  };
  for (const EdgeScaleRegion& r : perturbation) {
    mix(r.x0.value);
    mix(r.y0.value);
    mix(r.x1.value);
    mix(r.y1.value);
    mix(r.scale);
  }
  // 0 is reserved for the nominal mesh: a non-empty perturbation must
  // never key onto the unperturbed operator.
  return h != 0 ? h : 1;
}

bool MeshSolveCache::Key::operator<(const Key& o) const {
  return std::tie(width, height, nx, ny, sheet, perturbation_digest) <
         std::tie(o.width, o.height, o.nx, o.ny, o.sheet,
                  o.perturbation_digest);
}

bool MeshSolveCache::GridKey::operator<(const GridKey& o) const {
  return std::tie(nx, ny, structure_digest) <
         std::tie(o.nx, o.ny, o.structure_digest);
}

template <class K, class T, class Lookup, class Build>
T MeshSolveCache::get_once(std::map<K, Slot<T>>& slots, const K& key,
                           Lookup lookup, Build build) {
  std::promise<T> promise;
  std::uint64_t claim = 0;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    const auto it = slots.find(key);
    if (it != slots.end()) {
      lookup(true);
      const std::shared_future<T> pending = it->second.value;
      lock.unlock();
      return pending.get();  // waits for an in-flight build; rethrows
    }
    lookup(false);
    claim = ++builds_;
    slots.emplace(key, Slot<T>{promise.get_future().share(), claim});
  }
  try {
    T value = build();
    promise.set_value(value);
    return value;
  } catch (...) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      const auto it = slots.find(key);
      if (it != slots.end() && it->second.build == claim) slots.erase(it);
    }
    promise.set_exception(std::current_exception());
    throw;
  }
}

std::shared_ptr<const AssembledMesh> MeshSolveCache::get(
    Length width, Length height, std::size_t nx, std::size_t ny,
    double sheet_ohms, obs::TraceContext trace) {
  return get(width, height, nx, ny, sheet_ohms, MeshPerturbation{}, trace);
}

std::shared_ptr<const AssembledMesh> MeshSolveCache::get(
    Length width, Length height, std::size_t nx, std::size_t ny,
    double sheet_ohms, const MeshPerturbation& perturbation,
    obs::TraceContext trace) {
  const Key key{width.value, height.value, nx, ny, sheet_ohms,
                mesh_perturbation_digest(perturbation)};
  const auto count = [this](bool hit) {
    if (hit) {
      ++stats_.hits;
      obs::count(obs::Work::kMeshHits);
    } else {
      ++stats_.misses;
      obs::count(obs::Work::kMeshMisses);
    }
  };
  const auto assemble = [&] {
    obs::Span span("mesh.assemble", trace);
    span.set_arg("nx", double(nx));
    span.set_arg("ny", double(ny));
    GridMesh mesh(width, height, nx, ny, sheet_ohms, perturbation);
    CsrMatrix laplacian(mesh.laplacian());
    // Same routine as assemble_mesh, but the symbolic analyses come from
    // the grid's shared copy (built here if this is the grid's first key).
    const GridAnalysis analysis =
        get_once(grids_, GridKey{nx, ny, laplacian.structure_digest()},
                 [](bool) {}, [&] {
                   return GridAnalysis{IcSymbolic(laplacian),
                                       MgSymbolic(nx, ny)};
                 });
    return std::make_shared<const AssembledMesh>(
        AssembledMesh{std::move(mesh), std::move(laplacian), analysis.ic,
                      analysis.mg});
  };
  return get_once(entries_, key, count, assemble);
}

MeshSolveCache::Stats mesh_cache_stats(const obs::WorkAccount& account) {
  return {static_cast<std::size_t>(account.count(obs::Work::kMeshHits)),
          static_cast<std::size_t>(account.count(obs::Work::kMeshMisses))};
}

MeshSolveCache::Stats MeshSolveCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::size_t MeshSolveCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

std::size_t MeshSolveCache::analyses() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return grids_.size();
}

void MeshSolveCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
  grids_.clear();
  stats_ = Stats{};
}

}  // namespace vpd
