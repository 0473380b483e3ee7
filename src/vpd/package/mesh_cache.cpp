#include "vpd/package/mesh_cache.hpp"

#include <cstring>
#include <tuple>

namespace vpd {

std::shared_ptr<const AssembledMesh> assemble_mesh(Length width,
                                                   Length height,
                                                   std::size_t nx,
                                                   std::size_t ny,
                                                   double sheet_ohms) {
  GridMesh mesh(width, height, nx, ny, sheet_ohms);
  CsrMatrix laplacian(mesh.laplacian());
  IcSymbolic symbolic(laplacian);
  MgSymbolic hierarchy(nx, ny);
  return std::make_shared<const AssembledMesh>(
      AssembledMesh{mesh, std::move(laplacian), std::move(symbolic),
                    std::move(hierarchy)});
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
      AssembledMesh{mesh, std::move(laplacian), std::move(symbolic),
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
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    ++stats_.hits;
    obs::count(obs::Work::kMeshHits);
    return it->second;
  }
  // Assemble under the lock: concurrent requests for the same key wait and
  // then hit, so each mesh is built exactly once per cache lifetime.
  ++stats_.misses;
  obs::count(obs::Work::kMeshMisses);
  obs::Span span("mesh.assemble", trace);
  span.set_arg("nx", double(nx));
  span.set_arg("ny", double(ny));
  auto assembled =
      assemble_mesh(width, height, nx, ny, sheet_ohms, perturbation);
  entries_.emplace(key, assembled);
  return assembled;
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
