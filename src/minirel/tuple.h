// Tuples and their binary codec for heap-file storage.
#ifndef ARCHIS_MINIREL_TUPLE_H_
#define ARCHIS_MINIREL_TUPLE_H_

#include <initializer_list>
#include <vector>

#include "minirel/schema.h"

namespace archis::minirel {

/// A row: one Value per schema column.
class Tuple {
 public:
  Tuple() = default;
  explicit Tuple(std::vector<Value> values) : values_(std::move(values)) {}
  Tuple(std::initializer_list<Value> values) : values_(values) {}

  size_t size() const { return values_.size(); }
  const Value& at(size_t i) const { return values_[i]; }
  Value& at(size_t i) { return values_[i]; }
  const std::vector<Value>& values() const { return values_; }

  void Append(Value v) { values_.push_back(std::move(v)); }

  /// OK when the tuple has `schema`'s arity and column types (what Encode
  /// requires), without encoding it.
  Status CheckSchema(const Schema& schema) const;

  /// Serializes per `schema` column order into a byte string.
  Result<std::string> Encode(const Schema& schema) const;

  /// Parses a byte string produced by Encode with the same schema.
  static Result<Tuple> Decode(const Schema& schema, std::string_view data);

  /// "(v1, v2, ...)" for debugging.
  std::string ToString() const;

  bool operator==(const Tuple& other) const = default;

 private:
  std::vector<Value> values_;
};

}  // namespace archis::minirel

#endif  // ARCHIS_MINIREL_TUPLE_H_
