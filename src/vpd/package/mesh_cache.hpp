// Keyed cache of assembled mesh solve operators. A distribution solve's
// matrix is the GridMesh Laplacian plus per-VR shunt stamps; the Laplacian
// depends only on (width, height, nx, ny, sheet resistance), so across a
// design-space sweep the expensive part of assembly — triplet generation,
// sort and CSR compilation — is identical for every point on the same
// mesh. The cache shares one immutable AssembledMesh per key; solves copy
// its value array and stamp their shunts via CsrMatrix::add_to_entry.
//
// Thread-safe: getters from concurrent sweep workers serialize on one
// mutex, and a miss assembles while holding it, so each key is built
// exactly once (misses == distinct keys regardless of scheduling).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>

#include "vpd/common/multigrid.hpp"
#include "vpd/obs/trace.hpp"
#include "vpd/package/mesh.hpp"

namespace vpd {

/// An immutable, shareable mesh with its compiled Laplacian (no shunts),
/// the symbolic lower-triangle pattern for IC(0)/SSOR factorizations, and
/// the geometric multigrid hierarchy for kMultigrid solves of the stamped
/// operator. VR shunt stamps only touch existing diagonal entries, so one
/// pattern and one hierarchy — keyed, like the Laplacian itself, by the
/// cache key including the perturbation digest — serve every solve on
/// this mesh.
struct AssembledMesh {
  GridMesh mesh;
  CsrMatrix laplacian;
  IcSymbolic ic_symbolic;
  MgSymbolic mg_symbolic;
};

/// Builds the AssembledMesh for the given geometry (also the cache-miss
/// path, so cached and uncached solves share one assembly routine). The
/// perturbation overload applies a conductance perturbation; an empty
/// perturbation is bit-identical to the plain overload.
std::shared_ptr<const AssembledMesh> assemble_mesh(Length width,
                                                   Length height,
                                                   std::size_t nx,
                                                   std::size_t ny,
                                                   double sheet_ohms);
std::shared_ptr<const AssembledMesh> assemble_mesh(
    Length width, Length height, std::size_t nx, std::size_t ny,
    double sheet_ohms, const MeshPerturbation& perturbation);

/// Order-sensitive 64-bit FNV-1a digest of a conductance perturbation,
/// part of the MeshSolveCache key: two meshes with identical macro
/// geometry but different perturbations must never alias to the same
/// cache entry. Exactly 0 for the empty (nominal) perturbation and
/// guaranteed non-zero otherwise, so a perturbed mesh can never collide
/// with the nominal operator.
std::uint64_t mesh_perturbation_digest(const MeshPerturbation& perturbation);

class MeshSolveCache {
 public:
  struct Stats {
    std::size_t hits{0};
    std::size_t misses{0};
  };

  /// Returns the cached operator for the key, assembling it on first use,
  /// and counts the hit or miss into the current obs::WorkAccount.
  /// `trace` parents the "mesh.assemble" span a miss records; it never
  /// affects what is returned.
  std::shared_ptr<const AssembledMesh> get(Length width, Length height,
                                           std::size_t nx, std::size_t ny,
                                           double sheet_ohms,
                                           obs::TraceContext trace = {});

  /// Same, keyed additionally by the perturbation digest. An empty
  /// perturbation shares the nominal entry.
  std::shared_ptr<const AssembledMesh> get(
      Length width, Length height, std::size_t nx, std::size_t ny,
      double sheet_ohms, const MeshPerturbation& perturbation,
      obs::TraceContext trace = {});

  Stats stats() const;
  std::size_t size() const;
  void clear();

 private:
  struct Key {
    double width;
    double height;
    std::size_t nx;
    std::size_t ny;
    double sheet;
    std::uint64_t perturbation_digest;
    bool operator<(const Key& o) const;
  };

  mutable std::mutex mutex_;
  std::map<Key, std::shared_ptr<const AssembledMesh>> entries_;
  Stats stats_;
};

/// The mesh lookups counted into `account`, whichever caches served them.
MeshSolveCache::Stats mesh_cache_stats(const obs::WorkAccount& account);

}  // namespace vpd
