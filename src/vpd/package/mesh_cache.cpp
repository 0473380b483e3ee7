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
  return std::make_shared<const AssembledMesh>(AssembledMesh{
      std::move(mesh), std::move(laplacian), IcSymbolic{}, MgSymbolic(nx, ny)});
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
  std::promise<std::shared_ptr<const AssembledMesh>> promise;
  std::uint64_t claim = 0;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    const auto it = entries_.find(key);
    if (it != entries_.end()) {
      ++stats_.hits;
      obs::count(obs::Work::kMeshHits);
      const auto pending = it->second.value;
      lock.unlock();
      return pending.get();  // waits for an in-flight build; rethrows
    }
    ++stats_.misses;
    obs::count(obs::Work::kMeshMisses);
    claim = ++builds_;
    entries_.emplace(key, Slot{promise.get_future().share(), claim});
  }
  try {
    std::shared_ptr<const AssembledMesh> assembled;
    {
      obs::Span span("mesh.assemble", trace);
      span.set_arg("nx", double(nx));
      span.set_arg("ny", double(ny));
      assembled =
          assemble_mesh(width, height, nx, ny, sheet_ohms, perturbation);
    }
    promise.set_value(assembled);
    return assembled;
  } catch (...) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      const auto it = entries_.find(key);
      if (it != entries_.end() && it->second.build == claim) entries_.erase(it);
    }
    promise.set_exception(std::current_exception());
    throw;
  }
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

void MeshSolveCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
  stats_ = Stats{};
}

}  // namespace vpd
