#ifndef IDLOG_STORAGE_ID_RELATION_H_
#define IDLOG_STORAGE_ID_RELATION_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "storage/relation.h"
#include "storage/tid_assigner.h"

namespace idlog {

/// A materialized ID-relation p[s] (Section 2.1), stored group-major.
///
/// Its rows are the base tuples extended by their tid, group after
/// group in first-seen group order and, within a group, in base order —
/// the order BuildIdRelation produces. On top of the rows it
/// keeps the group CSR: group g holds rows [group_begin[g],
/// group_begin[g + 1]), and the row of group g with tid t is
/// tid_row[group_begin[g] + t]. A tid constraint (a constant tid, or
/// `T < k` and friends) therefore reads a slice of every group instead
/// of scanning the relation (SliceRows).
///
/// The membership table is deferred (Relation::AdoptDistinctRows): only
/// a full-tuple probe — a negated ID-literal, WHY, validation — builds
/// it. Rows are never mutated after construction; mutating them through
/// the Relation base would leave the group layout stale.
class IdRelation : public Relation {
 public:
  IdRelation() = default;

  /// Adopts `rows` (distinct, group-contiguous) with their layout.
  IdRelation(Relation rows, std::vector<uint32_t> group_begin,
             std::vector<uint32_t> tid_row)
      : Relation(std::move(rows)), group_begin_(std::move(group_begin)),
        tid_row_(std::move(tid_row)) {}

  /// Recovers the group layout of `rows`, the rows of an ID-relation on
  /// grouping columns `group` in their stored order (snapshot decode).
  /// Fails unless each group's rows are contiguous and carry the tids
  /// {0..m-1} for some m (a tid-pushdown prefix included).
  static Result<IdRelation> FromRows(Relation rows,
                                     const std::vector<int>& group);

  size_t num_groups() const {
    return group_begin_.empty() ? 0 : group_begin_.size() - 1;
  }

  /// Appends to `out`, in ascending row order, every row whose tid lies
  /// in [lo, hi).
  void SliceRows(int64_t lo, int64_t hi, std::vector<uint32_t>* out) const;

  /// Checks the layout against the rows: it must be the one FromRows
  /// recovers from them.
  Status ValidateLayout(const std::vector<int>& group) const;

 private:
  std::vector<uint32_t> group_begin_;  ///< num_groups + 1 entries.
  std::vector<uint32_t> tid_row_;      ///< One entry per row.
};

/// The engine's materialized ID-relations, keyed by (base predicate,
/// grouping columns).
using IdRelationMap =
    std::map<std::pair<std::string, std::vector<int>>, IdRelation>;

/// Materializes an ID-relation of `rel` on grouping columns `group`
/// (Section 2.1): partitions `rel` into sub-relations sharing the group
/// key, asks `assigner` for an ID-function (a bijection onto {0..k-1})
/// per sub-relation, and returns the (n+1)-ary relation of type
/// `type(rel) . 1` whose tuples are `t . tid`.
///
/// `group` must hold distinct 0-based column positions of `rel`; the
/// empty group makes the whole relation a single sub-relation (the
/// "most primitive" p[] form of footnote 5).
///
/// Groups are visited in first-seen order over `rel`'s canonical tuple
/// order, so a deterministic assigner yields a deterministic result.
///
/// `max_tid >= 0` materializes only the tuples whose tid is below the
/// bound — the paper's footnote 6/7 optimization: a program that only
/// ever constrains the tid (`emp[2](N,D,T), T < 2` or a constant tid)
/// never observes the truncated rest. The ID-functions are still drawn
/// over the full groups, so the result is a prefix of a legal
/// ID-relation.
Result<IdRelation> BuildIdRelation(const std::string& predicate,
                                   const Relation& rel,
                                   const std::vector<int>& group,
                                   TidAssigner* assigner,
                                   int64_t max_tid = -1,
                                   size_t* num_groups = nullptr);

/// Checks the defining invariant of an ID-relation: projecting away the
/// tid recovers `base` exactly, and within every group the tids are a
/// bijection onto {0..k-1}. With `max_tid >= 0` (a tid-pushdown prefix)
/// each group of k base tuples must instead hold exactly the tids
/// {0..min(k, max_tid)-1}, and the projection lands inside `base`.
/// Used by tests and the engine's self-checks.
Status ValidateIdRelation(const Relation& base, const Relation& id_rel,
                          const std::vector<int>& group,
                          int64_t max_tid = -1);

/// The same, plus the group layout (IdRelation::ValidateLayout).
Status ValidateIdRelation(const Relation& base, const IdRelation& id_rel,
                          const std::vector<int>& group,
                          int64_t max_tid = -1);

}  // namespace idlog

#endif  // IDLOG_STORAGE_ID_RELATION_H_
