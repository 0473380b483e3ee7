// Keyed cache of assembled mesh solve operators. A distribution solve's
// matrix is the GridMesh Laplacian plus per-VR shunt stamps; the Laplacian
// depends only on (width, height, nx, ny, sheet resistance), so across a
// design-space sweep the expensive part of assembly — triplet generation,
// sort and CSR compilation — is identical for every point on the same
// mesh. The cache shares one immutable AssembledMesh per key; solves copy
// its value array and stamp their shunts via CsrMatrix::add_to_entry.
// The cache builds no symbolic analysis: the IC pattern and the multigrid
// hierarchy belong to the preconditioner that factors the stamped
// operator (see CgWorkspace), which builds each once per thread and
// pattern or grid.
//
// Thread-safe: each key is built exactly once (misses == distinct keys
// regardless of scheduling), by the getter that missed, outside the
// cache's mutex. Getters of a key being built wait for that one build;
// getters of other keys go ahead.
#pragma once

#include <cstddef>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>

#include "vpd/common/multigrid.hpp"
#include "vpd/obs/trace.hpp"
#include "vpd/package/mesh.hpp"

namespace vpd {

/// An immutable, shareable mesh with its compiled Laplacian (no shunts).
/// VR shunt stamps only touch existing diagonal entries, so every solve on
/// this mesh has the Laplacian's sparsity pattern.
struct AssembledMesh {
  GridMesh mesh;
  CsrMatrix laplacian;
  /// Always empty; the IC pattern is built by the preconditioner. Kept
  /// only because perfbench's layer probes pass it to solve_cg; remove it
  /// with their next change.
  IcSymbolic ic_symbolic;
  /// The mesh's grid (nx, ny), which CgOptions::mg_symbolic needs for a
  /// kMultigrid solve of the stamped operator.
  MgSymbolic mg_symbolic;
};

/// Builds the AssembledMesh for the given geometry; a MeshSolveCache miss
/// builds its entry with this same routine, so cached and uncached solves
/// are bit-identical. The perturbation overload applies a conductance
/// perturbation; an empty perturbation is bit-identical to the plain
/// overload.
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
  /// and counts the hit or miss into the current obs::WorkAccount. A
  /// getter that finds the key still being built counts a hit and waits
  /// for that build; if the build throws, its getter and every waiter
  /// rethrow the error and the key is left uncached. `trace` parents the
  /// "mesh.assemble" span a miss records; it never affects what is
  /// returned.
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
  /// Keys held, those still being built included.
  std::size_t size() const;
  /// Drops every key and the stats. A build in flight still completes for
  /// its getters but is not kept.
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
  /// An entry built once, outside the mutex: the getter that misses
  /// claims the slot and builds; getters arriving meanwhile wait on
  /// `value`. `build` names the claiming call, so a failed build removes
  /// its own slot and never one a later getter claimed after clear().
  struct Slot {
    std::shared_future<std::shared_ptr<const AssembledMesh>> value;
    std::uint64_t build{0};
  };

  mutable std::mutex mutex_;
  std::map<Key, Slot> entries_;
  std::uint64_t builds_{0};
  Stats stats_;
};

/// The mesh lookups counted into `account`, whichever caches served them.
MeshSolveCache::Stats mesh_cache_stats(const obs::WorkAccount& account);

}  // namespace vpd
