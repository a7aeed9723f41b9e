#ifndef IDLOG_OBS_DBSTATS_H_
#define IDLOG_OBS_DBSTATS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/limits.h"
#include "common/symbol_table.h"
#include "eval/provenance.h"
#include "storage/database.h"
#include "storage/id_relation.h"
#include "storage/index.h"
#include "storage/relation.h"
#include "storage/tid_assigner.h"

namespace idlog {

/// Per-relation storage statistics. The logical fields (name, kind,
/// group, arity, tuples, version, clear_generation, approx_bytes) are
/// byte-identical across --jobs settings: tuple contents,
/// committed-insert counts and the byte formula all live on the
/// deterministic side of the executor's commit contract. The index_*
/// fields are physical — which indexes exist and how often they were
/// built depends on lazy-vs-eager build scheduling — so they appear in
/// the text table only, never in the JSON document (same split as
/// EXPLAIN's index_builds counters).
struct RelationStorageStats {
  std::string name;
  std::string kind;        ///< "edb", "derived", "udom" or "id".
  std::vector<int> group;  ///< ID-relations only: the grouping columns.
  int arity = 0;
  uint64_t tuples = 0;
  uint64_t version = 0;           ///< Committed-insert count (+1 per Clear).
  uint64_t clear_generation = 0;  ///< Clear() churn counter.
  /// ApproxTupleBytes(arity) * tuples — deliberately the same formula
  /// the governor charges per materialized tuple, so component sums
  /// reconcile against memory_charged().
  uint64_t approx_bytes = 0;
  // --- Physical index attribution (text table only). ---
  uint64_t indexes = 0;
  uint64_t index_keys = 0;
  uint64_t index_entries = 0;
  uint64_t index_bytes = 0;
};

/// A full storage walk: every EDB/derived/udom relation, every
/// materialized ID-relation, the intern pool, the tid-assigner state,
/// the provenance arena, per-component byte totals and the governor
/// reconciliation. Rendered as an aligned text table (--db-stats) or
/// the deterministic `idlog-dbstats-v1` JSON (--db-stats-json).
struct StorageStats {
  std::vector<RelationStorageStats> relations;     ///< edb, derived, udom.
  std::vector<RelationStorageStats> id_relations;  ///< (pred, group) order.

  uint64_t symbol_count = 0;
  uint64_t symbol_bytes = 0;

  std::string assigner_kind;          ///< Empty when no assigner in view.
  uint64_t assigner_state_bytes = 0;  ///< SaveState() payload size.

  uint64_t provenance_nodes = 0;
  uint64_t provenance_premises = 0;
  uint64_t provenance_bytes = 0;

  // --- Component byte totals (logical). ---
  uint64_t edb_tuples = 0, edb_bytes = 0;
  uint64_t derived_tuples = 0, derived_bytes = 0;
  uint64_t udom_tuples = 0, udom_bytes = 0;
  uint64_t id_tuples = 0, id_bytes = 0;

  /// Governor reconciliation. accounted_bytes = derived_bytes +
  /// id_bytes + provenance_bytes — exactly the components Run() charges
  /// against the memory budget (EDB/udom storage predates the run's
  /// Arm() and is never charged). For a completed, non-resumed run the
  /// two are equal; a resumed run restores uncharged tuples
  /// (accounted > charged) and a tripped run may commit a failing
  /// round's tail uncharged (accounted >= charged).
  bool has_governor = false;
  uint64_t governor_memory_bytes = 0;  ///< memory_charged() now.
  uint64_t accounted_bytes = 0;

  // --- Physical totals (text table only). ---
  uint64_t total_indexes = 0;
  uint64_t total_index_keys = 0;
  uint64_t total_index_entries = 0;
  uint64_t total_index_bytes = 0;

  uint64_t total_tuples() const {
    return edb_tuples + derived_tuples + udom_tuples + id_tuples;
  }
  /// Every logical component: relation payloads + intern pool +
  /// assigner state + provenance arena.
  uint64_t total_approx_bytes() const {
    return edb_bytes + derived_bytes + udom_bytes + id_bytes +
           symbol_bytes + assigner_state_bytes + provenance_bytes;
  }

  /// Aligned text table, physical index columns included.
  std::string ToTable() const;

  /// Deterministic `idlog-dbstats-v1` JSON: logical fields only, so
  /// the document is byte-identical across --jobs.
  std::string ToJson() const;
};

/// Borrowed pointers into the engine state the walker reads; only
/// `database` and `symbols` are required, everything else degrades to
/// zeros/absence (a pre-run engine has no derived state yet).
struct StorageStatsView {
  const Database* database = nullptr;
  const SymbolTable* symbols = nullptr;
  const std::map<std::string, Relation>* derived = nullptr;
  const IdRelationMap* id_relations = nullptr;
  const Relation* udom = nullptr;  ///< Synthesized u-domain, if built.
  const std::map<const Relation*, std::unique_ptr<IndexCache>>*
      index_caches = nullptr;
  const ProvenanceStore* provenance = nullptr;
  const TidAssigner* assigner = nullptr;
  const ResourceGovernor* governor = nullptr;
};

/// Walks the view and fills every StorageStats field.
StorageStats CollectStorageStats(const StorageStatsView& view);

}  // namespace idlog

#endif  // IDLOG_OBS_DBSTATS_H_
