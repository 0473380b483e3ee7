// Keyed cache of assembled mesh solve operators. A distribution solve's
// matrix is the GridMesh Laplacian plus per-VR shunt stamps; the Laplacian
// depends only on (width, height, nx, ny, sheet resistance), so across a
// design-space sweep the expensive part of assembly — triplet generation,
// sort and CSR compilation — is identical for every point on the same
// mesh. The cache shares one immutable AssembledMesh per key; solves copy
// its value array and stamp their shunts via CsrMatrix::add_to_entry.
// The symbolic analyses (IC pattern, multigrid hierarchy) depend only on
// the sparsity pattern, which a conductance perturbation never changes,
// so the cache builds them once per grid and every key on that grid,
// nominal or perturbed, shares them.
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

/// An immutable, shareable mesh with its compiled Laplacian (no shunts),
/// the symbolic lower-triangle pattern for IC(0)/SSOR factorizations, and
/// the geometric multigrid hierarchy for kMultigrid solves of the stamped
/// operator. VR shunt stamps only touch existing diagonal entries, so one
/// pattern and one hierarchy serve every solve on this mesh; both are
/// shared handles, and a MeshSolveCache hands the same analysis to every
/// mesh on one grid.
struct AssembledMesh {
  GridMesh mesh;
  CsrMatrix laplacian;
  IcSymbolic ic_symbolic;
  MgSymbolic mg_symbolic;
};

/// Builds the AssembledMesh for the given geometry with its own symbolic
/// analyses. A cache miss compiles the same Laplacian and takes the
/// analyses of its grid instead, which are identical to these, so cached
/// and uncached solves are bit-identical. The perturbation overload
/// applies a conductance perturbation; an empty perturbation is
/// bit-identical to the plain overload.
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
  /// Grid analyses held: one per distinct grid pattern the keys use.
  std::size_t analyses() const;
  /// Drops every key, every grid analysis and the stats. A build in
  /// flight still completes for its getters but is not kept.
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
  /// A grid analysis is keyed by the Laplacian's structure digest, so it
  /// is only ever reused for the pattern it was built from.
  struct GridKey {
    std::size_t nx;
    std::size_t ny;
    std::uint64_t structure_digest;
    bool operator<(const GridKey& o) const;
  };
  struct GridAnalysis {
    IcSymbolic ic;
    MgSymbolic mg;
  };
  /// A value built once, outside the mutex: the getter that misses claims
  /// the slot and builds; getters arriving meanwhile wait on `value`.
  /// `build` names the claiming call, so a failed build removes its own
  /// slot and never one a later getter claimed after clear().
  template <class T>
  struct Slot {
    std::shared_future<T> value;
    std::uint64_t build{0};
  };
  template <class K, class T, class Lookup, class Build>
  T get_once(std::map<K, Slot<T>>& slots, const K& key, Lookup lookup,
             Build build);

  mutable std::mutex mutex_;
  std::map<Key, Slot<std::shared_ptr<const AssembledMesh>>> entries_;
  std::map<GridKey, Slot<GridAnalysis>> grids_;
  std::uint64_t builds_{0};
  Stats stats_;
};

/// The mesh lookups counted into `account`, whichever caches served them.
MeshSolveCache::Stats mesh_cache_stats(const obs::WorkAccount& account);

}  // namespace vpd
