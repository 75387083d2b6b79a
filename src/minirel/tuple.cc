#include "minirel/tuple.h"

namespace archis::minirel {

Status Tuple::CheckSchema(const Schema& schema) const {
  if (values_.size() != schema.num_columns()) {
    return Status::InvalidArgument("tuple arity does not match schema");
  }
  for (size_t i = 0; i < values_.size(); ++i) {
    if (values_[i].type() != schema.column(i).type) {
      return Status::TypeError("column '" + schema.column(i).name +
                               "' expects " +
                               DataTypeName(schema.column(i).type) +
                               ", got " + DataTypeName(values_[i].type()));
    }
  }
  return Status::OK();
}

Result<std::string> Tuple::Encode(const Schema& schema) const {
  ARCHIS_RETURN_NOT_OK(CheckSchema(schema));
  std::string out;
  for (const Value& v : values_) v.EncodeTo(&out);
  return out;
}

Result<Tuple> Tuple::Decode(const Schema& schema, std::string_view data) {
  std::vector<Value> values;
  values.reserve(schema.num_columns());
  size_t pos = 0;
  for (size_t i = 0; i < schema.num_columns(); ++i) {
    ARCHIS_ASSIGN_OR_RETURN(
        Value v, Value::DecodeFrom(schema.column(i).type, data, &pos));
    values.push_back(std::move(v));
  }
  if (pos != data.size()) {
    return Status::Corruption("trailing bytes after tuple");
  }
  return Tuple(std::move(values));
}

std::string Tuple::ToString() const {
  std::string out = "(";
  for (size_t i = 0; i < values_.size(); ++i) {
    if (i > 0) out += ", ";
    out += values_[i].ToString();
  }
  out += ")";
  return out;
}

}  // namespace archis::minirel
