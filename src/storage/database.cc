#include "storage/database.h"

namespace idlog {

Status Database::CreateRelation(const std::string& name, RelationType type) {
  auto it = relations_.find(name);
  if (it != relations_.end()) {
    if (it->second.type() != type) {
      return Status::TypeError("relation '" + name +
                               "' already exists with a different type");
    }
    return Status::OK();
  }
  relations_.emplace(name, Relation(std::move(type)));
  names_.push_back(name);
  return Status::OK();
}

Result<const Relation*> Database::Get(const std::string& name) const {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound("no relation '" + name + "'");
  }
  return static_cast<const Relation*>(&it->second);
}

Result<Relation*> Database::GetMutable(const std::string& name) {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound("no relation '" + name + "'");
  }
  return &it->second;
}

Status Database::AddValues(const std::string& name, TupleView t) {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    RelationType type;
    type.reserve(t.size());
    for (const Value& v : t) type.push_back(v.sort());
    IDLOG_RETURN_NOT_OK(CreateRelation(name, std::move(type)));
    it = relations_.find(name);
  }
  for (const Value& v : t) {
    if (v.is_symbol()) u_domain_.insert(v.symbol());
  }
  return it->second.InsertChecked(t);
}

Result<bool> Database::EraseTuple(const std::string& name, const Tuple& t) {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound("no relation '" + name + "'");
  }
  return it->second.Erase(t);
}

Status Database::AddRow(const std::string& name,
                        const std::string_view* fields, size_t n) {
  // Rows of common arity are built on the stack.
  constexpr size_t kInline = 8;
  Value inline_values[kInline];
  std::vector<Value> heap_values;
  Value* values = inline_values;
  if (n > kInline) {
    heap_values.resize(n);
    values = heap_values.data();
  }
  for (size_t k = 0; k < n; ++k) {
    IDLOG_RETURN_NOT_OK(FieldToValue(fields[k], symbols_, &values[k]));
  }
  return AddValues(name, TupleView(values, n));
}

Status Database::AddRow(const std::string& name,
                        const std::vector<std::string>& fields) {
  const std::vector<std::string_view> views(fields.begin(), fields.end());
  return AddRow(name, views.data(), views.size());
}

}  // namespace idlog
