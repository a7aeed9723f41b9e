#include "storage/id_relation.h"

#include <algorithm>
#include <map>

namespace idlog {

Result<Relation> BuildIdRelation(const std::string& predicate,
                                 const Relation& rel,
                                 const std::vector<int>& group,
                                 TidAssigner* assigner, int64_t max_tid,
                                 size_t* num_groups) {
  for (int c : group) {
    if (c < 0 || c >= rel.arity()) {
      return Status::InvalidArgument(
          "grouping column " + std::to_string(c + 1) +
          " out of range for '" + predicate + "' of arity " +
          std::to_string(rel.arity()));
    }
  }

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

  RelationType out_type = rel.type();
  out_type.push_back(Sort::kI);
  Relation out(std::move(out_type));
  out.Reserve(n);
  if (num_groups != nullptr) *num_groups = keys.size();

  const size_t arity = rel.type().size();
  Tuple t(arity + 1);
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
    for (size_t i = 0; i < count; ++i) {
      if (max_tid >= 0 && static_cast<int64_t>(tids[i]) >= max_tid) {
        continue;
      }
      const TupleView base = rel.row(members[begin + i]);
      std::copy(base.begin(), base.end(), t.begin());
      t[arity] = Value::Number(tids[i]);
      // Base rows are distinct, so their tid extensions are too.
      out.InsertDistinct(t, HashRow(t.data(), t.size()));
    }
  }
  return out;
}

Status ValidateIdRelation(const Relation& base, const Relation& id_rel,
                          const std::vector<int>& group) {
  if (id_rel.arity() != base.arity() + 1) {
    return Status::Internal("ID-relation arity mismatch");
  }
  if (id_rel.size() != base.size()) {
    return Status::Internal("ID-relation cardinality mismatch");
  }
  // Per-group tid multiset must be exactly {0..k-1}; the projection must
  // land in the base relation.
  std::map<Tuple, std::vector<int64_t>> group_tids;
  for (TupleView t : id_rel.tuples()) {
    const TupleView bare(t.data(), t.size() - 1);
    if (!base.Contains(bare)) {
      return Status::Internal("ID-relation tuple not present in base");
    }
    Tuple key = ProjectTuple(bare, group);
    group_tids[key].push_back(t.back().number());
  }
  for (auto& [key, tids] : group_tids) {
    std::sort(tids.begin(), tids.end());
    for (size_t i = 0; i < tids.size(); ++i) {
      if (tids[i] != static_cast<int64_t>(i)) {
        return Status::Internal("tids of a group are not {0..k-1}");
      }
    }
  }
  return Status::OK();
}

}  // namespace idlog
