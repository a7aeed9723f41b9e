#include "storage/id_relation.h"

#include <algorithm>
#include <limits>
#include <map>

namespace idlog {

namespace {

constexpr uint32_t kNoRow = std::numeric_limits<uint32_t>::max();

Status CheckGroupColumns(const std::string& predicate, size_t arity,
                         const std::vector<int>& group) {
  for (int c : group) {
    if (c < 0 || static_cast<size_t>(c) >= arity) {
      return Status::InvalidArgument(
          "grouping column " + std::to_string(c + 1) +
          " out of range for '" + predicate + "' of arity " +
          std::to_string(arity));
    }
  }
  return Status::OK();
}

bool SameKey(TupleView a, TupleView b, const std::vector<int>& group) {
  for (int c : group) {
    if (a[static_cast<size_t>(c)] != b[static_cast<size_t>(c)]) return false;
  }
  return true;
}

}  // namespace

Result<IdRelation> IdRelation::FromRows(Relation rows,
                                        const std::vector<int>& group) {
  if (rows.arity() == 0) {
    return Status::InvalidArgument("ID-relation rows carry no tid column");
  }
  const size_t base_arity = static_cast<size_t>(rows.arity()) - 1;
  IDLOG_RETURN_NOT_OK(CheckGroupColumns("ID-relation", base_arity, group));
  const size_t n = rows.size();
  if (n >= kNoRow) return Status::InvalidArgument("ID-relation too large");

  // Group boundaries: a new group starts wherever the key changes, and
  // no key may start twice.
  std::vector<uint32_t> group_begin(1, 0);
  RelationType key_type;
  for (int c : group) key_type.push_back(rows.type()[static_cast<size_t>(c)]);
  Relation keys(std::move(key_type));
  Tuple key(group.size());
  for (size_t r = 0; r < n; ++r) {
    const TupleView row = rows.row(r);
    if (r > 0 && SameKey(row, rows.row(group_begin.back()), group)) continue;
    if (r > 0) group_begin.push_back(static_cast<uint32_t>(r));
    for (size_t k = 0; k < group.size(); ++k) {
      key[k] = row[static_cast<size_t>(group[k])];
    }
    if (!keys.Insert(key)) {
      return Status::InvalidArgument(
          "ID-relation rows of one group are not contiguous");
    }
  }
  if (n > 0) group_begin.push_back(static_cast<uint32_t>(n));

  // Each group of m rows must carry the tids {0..m-1}.
  std::vector<uint32_t> tid_row(n, kNoRow);
  for (size_t g = 0; g + 1 < group_begin.size(); ++g) {
    const size_t begin = group_begin[g];
    const size_t m = group_begin[g + 1] - begin;
    for (size_t r = begin; r < begin + m; ++r) {
      const Value& tid = rows.row(r)[base_arity];
      if (!tid.is_number() || tid.number() < 0 ||
          static_cast<uint64_t>(tid.number()) >= m ||
          tid_row[begin + static_cast<size_t>(tid.number())] != kNoRow) {
        return Status::InvalidArgument(
            "ID-relation tids of a group are not {0..m-1}");
      }
      tid_row[begin + static_cast<size_t>(tid.number())] =
          static_cast<uint32_t>(r);
    }
  }
  return IdRelation(std::move(rows), std::move(group_begin),
                    std::move(tid_row));
}

void IdRelation::SliceRows(int64_t lo, int64_t hi,
                           std::vector<uint32_t>* out) const {
  lo = std::max<int64_t>(lo, 0);
  if (hi <= lo) return;
  const uint64_t first = static_cast<uint64_t>(lo);
  for (size_t g = 0; g < num_groups(); ++g) {
    const uint32_t begin = group_begin_[g];
    const uint64_t m = group_begin_[g + 1] - begin;
    if (first >= m) continue;
    const uint64_t last = std::min<uint64_t>(static_cast<uint64_t>(hi), m);
    const size_t start = out->size();
    for (uint64_t t = first; t < last; ++t) {
      out->push_back(tid_row_[begin + t]);
    }
    std::sort(out->begin() + static_cast<ptrdiff_t>(start), out->end());
  }
}

Status IdRelation::ValidateLayout(const std::vector<int>& group) const {
  IDLOG_ASSIGN_OR_RETURN(IdRelation rebuilt,
                         FromRows(static_cast<const Relation&>(*this), group));
  if (rebuilt.group_begin_ != group_begin_ || rebuilt.tid_row_ != tid_row_) {
    return Status::Internal("ID-relation layout disagrees with its rows");
  }
  return Status::OK();
}

Result<IdRelation> BuildIdRelation(const std::string& predicate,
                                   const Relation& rel,
                                   const std::vector<int>& group,
                                   TidAssigner* assigner, int64_t max_tid,
                                   size_t* num_groups) {
  IDLOG_RETURN_NOT_OK(CheckGroupColumns(
      predicate, static_cast<size_t>(rel.arity()), group));

  // Partition rows by group key, preserving first-seen group order and
  // canonical in-group order: `keys` holds one row per group (its row
  // index is the group number), and the members of all groups are laid
  // out group after group in `members` (CSR: group g's rows are
  // members[offset[g] .. offset[g + 1])).
  const size_t n = rel.size();
  RelationType key_type;
  for (int c : group) key_type.push_back(rel.type()[static_cast<size_t>(c)]);
  Relation keys(std::move(key_type));
  std::vector<uint32_t> group_of(n);
  std::vector<size_t> offset(1, 0);
  Tuple key(group.size());
  for (size_t i = 0; i < n; ++i) {
    const TupleView row = rel.row(i);
    for (size_t k = 0; k < group.size(); ++k) {
      key[k] = row[static_cast<size_t>(group[k])];
    }
    size_t g = keys.Find(key);
    if (g == Relation::npos) {
      g = keys.size();
      keys.Insert(key);
      offset.push_back(0);
    }
    group_of[i] = static_cast<uint32_t>(g);
    ++offset[g + 1];
  }
  for (size_t g = 1; g < offset.size(); ++g) offset[g] += offset[g - 1];
  std::vector<size_t> members(n);
  {
    std::vector<size_t> fill(offset.begin(), offset.end() - 1);
    for (size_t i = 0; i < n; ++i) members[fill[group_of[i]]++] = i;
  }
  if (num_groups != nullptr) *num_groups = keys.size();

  // The output keeps the same layout: group g's materialized rows are
  // contiguous, in member order, and tid_row inverts their tids.
  size_t kept = n;
  if (max_tid >= 0) {
    kept = 0;
    for (size_t g = 0; g + 1 < offset.size(); ++g) {
      kept += std::min<size_t>(offset[g + 1] - offset[g],
                               static_cast<size_t>(max_tid));
    }
  }
  const size_t arity = rel.type().size();
  RowBuffer rows(arity + 1);
  rows.Reserve(kept);
  std::vector<uint32_t> group_begin;
  group_begin.reserve(keys.size() + 1);
  group_begin.push_back(0);
  std::vector<uint32_t> tid_row(kept, kNoRow);
  std::vector<uint32_t> tids;
  for (size_t g = 0; g < keys.size(); ++g) {
    const size_t begin = offset[g];
    const size_t count = offset[g + 1] - begin;
    const Tuple group_key = keys.row(g).ToTuple();
    GroupContext ctx{predicate, group, group_key};
    assigner->AssignGroup(ctx, count, &tids);
    if (tids.size() != count) {
      return Status::Internal("tid assigner returned wrong-size permutation");
    }
    const size_t out_begin = rows.size();
    const size_t kept_here =
        max_tid >= 0 ? std::min<size_t>(count, static_cast<size_t>(max_tid))
                     : count;
    for (size_t i = 0; i < count; ++i) {
      if (tids[i] >= count) {
        return Status::Internal("tid assigner returned a non-permutation");
      }
      if (tids[i] >= kept_here) continue;
      uint32_t& slot = tid_row[out_begin + tids[i]];
      if (slot != kNoRow) {
        return Status::Internal("tid assigner returned a non-permutation");
      }
      slot = static_cast<uint32_t>(rows.size());
      const TupleView base = rel.row(members[begin + i]);
      Value* out = rows.AppendRow();
      std::copy(base.begin(), base.end(), out);
      out[arity] = Value::Number(tids[i]);
    }
    // A group truncated to nothing (max_tid 0) leaves no rows behind.
    if (rows.size() > out_begin) {
      group_begin.push_back(static_cast<uint32_t>(rows.size()));
    }
  }

  RelationType out_type = rel.type();
  out_type.push_back(Sort::kI);
  // Base rows are distinct, so their tid extensions are too.
  return IdRelation(
      Relation::AdoptDistinctRows(std::move(out_type), std::move(rows)),
      std::move(group_begin), std::move(tid_row));
}

Status ValidateIdRelation(const Relation& base, const Relation& id_rel,
                          const std::vector<int>& group, int64_t max_tid) {
  if (id_rel.arity() != base.arity() + 1) {
    return Status::Internal("ID-relation arity mismatch");
  }
  if (max_tid < 0 && id_rel.size() != base.size()) {
    return Status::Internal("ID-relation cardinality mismatch");
  }
  // Per-group tid multiset must be exactly {0..m-1}, m the group's size
  // (capped at max_tid for a prefix); the projection must land in the
  // base relation.
  std::map<Tuple, std::vector<int64_t>> group_tids;
  for (TupleView t : id_rel.tuples()) {
    const TupleView bare(t.data(), t.size() - 1);
    if (!base.Contains(bare)) {
      return Status::Internal("ID-relation tuple not present in base");
    }
    group_tids[ProjectTuple(bare, group)].push_back(t.back().number());
  }
  std::map<Tuple, size_t> group_size;
  for (TupleView t : base.tuples()) ++group_size[ProjectTuple(t, group)];
  for (const auto& [key, size] : group_size) {
    const size_t want =
        max_tid >= 0 ? std::min(size, static_cast<size_t>(max_tid)) : size;
    std::vector<int64_t>& tids = group_tids[key];
    if (tids.size() != want) {
      return Status::Internal("ID-relation cardinality mismatch");
    }
    std::sort(tids.begin(), tids.end());
    for (size_t i = 0; i < tids.size(); ++i) {
      if (tids[i] != static_cast<int64_t>(i)) {
        return Status::Internal("tids of a group are not {0..k-1}");
      }
    }
  }
  return Status::OK();
}

Status ValidateIdRelation(const Relation& base, const IdRelation& id_rel,
                          const std::vector<int>& group, int64_t max_tid) {
  IDLOG_RETURN_NOT_OK(ValidateIdRelation(
      base, static_cast<const Relation&>(id_rel), group, max_tid));
  return id_rel.ValidateLayout(group);
}

}  // namespace idlog
