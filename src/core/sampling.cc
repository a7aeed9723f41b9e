#include "core/sampling.h"

#include "ast/program_builder.h"
#include "common/str_util.h"
#include "common/symbol_table.h"
#include "eval/engine_impl.h"
#include "storage/database.h"
#include "storage/id_relation.h"

namespace idlog {

Result<Relation> SampleKPerGroupWith(const Relation& rel,
                                     const std::vector<int>& group_cols,
                                     int64_t k, TidAssigner* assigner) {
  if (k < 0) return Status::InvalidArgument("sample size must be >= 0");
  // The ID-relation *is* the sampling mechanism: keep tuples whose tid
  // is below k. Build it directly rather than through a full engine run
  // (identical semantics to the IDLOG rule, documented in the header).
  IDLOG_ASSIGN_OR_RETURN(Relation id_rel,
                         BuildIdRelation("sample_input", rel, group_cols,
                                         assigner));
  Relation out(rel.type());
  for (TupleView t : id_rel.tuples()) {
    if (t.back().number() < k) {
      out.Insert(TupleView(t.data(), t.size() - 1));
    }
  }
  return out;
}

Result<Relation> SampleKPerGroup(const Relation& rel,
                                 const std::vector<int>& group_cols,
                                 int64_t k, uint64_t seed) {
  RandomTidAssigner assigner(seed);
  return SampleKPerGroupWith(rel, group_cols, k, &assigner);
}

std::string SamplingProgramText(const std::string& relation_name, int arity,
                                const std::vector<int>& group_cols,
                                int64_t k) {
  std::string head = "sample(";
  std::string body = relation_name + "[";
  for (size_t i = 0; i < group_cols.size(); ++i) {
    if (i > 0) body += ",";
    body += std::to_string(group_cols[i] + 1);
  }
  body += "](";
  for (int i = 0; i < arity; ++i) {
    std::string var = Numbered("X", i + 1);
    if (i > 0) head += ", ";
    head += var;
    body += var + ", ";
  }
  head += ")";
  body += "T)";
  return head + " :- " + body + ", T < " + std::to_string(k) + ".";
}

}  // namespace idlog
