#include "storage/value.h"

#include <charconv>
#include <cmath>

#include "common/logging.h"
#include "util/strings.h"

namespace ldv::storage {

std::string_view ValueTypeName(ValueType type) {
  switch (type) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kInt64:
      return "INT";
    case ValueType::kDouble:
      return "DOUBLE";
    case ValueType::kString:
      return "TEXT";
  }
  return "?";
}

Result<ValueType> ValueTypeFromSqlName(std::string_view name) {
  std::string lower = ToLower(name);
  if (lower == "int" || lower == "integer" || lower == "bigint" ||
      lower == "smallint" || lower == "int4" || lower == "int8") {
    return ValueType::kInt64;
  }
  if (lower == "double" || lower == "float" || lower == "real" ||
      lower == "decimal" || lower == "numeric" || lower == "double precision") {
    return ValueType::kDouble;
  }
  if (lower == "text" || lower == "varchar" || lower == "char" ||
      lower == "string" || lower == "date") {
    return ValueType::kString;
  }
  return Status::ParseError("unknown SQL type: " + std::string(name));
}

Value Value::Int(int64_t v) {
  Value out;
  out.type_ = ValueType::kInt64;
  out.int_ = v;
  return out;
}

Value Value::Real(double v) {
  Value out;
  out.type_ = ValueType::kDouble;
  out.double_ = v;
  return out;
}

Value Value::Str(std::string v) {
  Value out;
  out.type_ = ValueType::kString;
  out.string_ = std::move(v);
  return out;
}

int64_t Value::AsInt() const {
  LDV_CHECK(type_ == ValueType::kInt64);
  return int_;
}

double Value::AsDouble() const {
  if (type_ == ValueType::kInt64) return static_cast<double>(int_);
  LDV_CHECK(type_ == ValueType::kDouble);
  return double_;
}

const std::string& Value::AsString() const {
  LDV_CHECK(type_ == ValueType::kString);
  return string_;
}

bool Value::IsTruthy() const {
  switch (type_) {
    case ValueType::kNull:
      return false;
    case ValueType::kInt64:
      return int_ != 0;
    case ValueType::kDouble:
      return double_ != 0;
    case ValueType::kString:
      return !string_.empty();
  }
  return false;
}

Result<int> Value::Compare(const Value& other) const {
  if (is_null() || other.is_null()) {
    if (is_null() && other.is_null()) return 0;
    return is_null() ? -1 : 1;
  }
  const bool self_num = type_ != ValueType::kString;
  const bool other_num = other.type_ != ValueType::kString;
  if (self_num != other_num) {
    return Status::InvalidArgument("cannot compare " +
                                   std::string(ValueTypeName(type_)) + " and " +
                                   std::string(ValueTypeName(other.type_)));
  }
  if (self_num) {
    if (type_ == ValueType::kInt64 && other.type_ == ValueType::kInt64) {
      if (int_ < other.int_) return -1;
      if (int_ > other.int_) return 1;
      return 0;
    }
    double a = AsDouble();
    double b = other.AsDouble();
    if (a < b) return -1;
    if (a > b) return 1;
    return 0;
  }
  int cmp = string_.compare(other.string_);
  return cmp < 0 ? -1 : (cmp > 0 ? 1 : 0);
}

bool Value::operator==(const Value& other) const {
  if (type_ != other.type_) return false;
  switch (type_) {
    case ValueType::kNull:
      return true;
    case ValueType::kInt64:
      return int_ == other.int_;
    case ValueType::kDouble:
      return double_ == other.double_;
    case ValueType::kString:
      return string_ == other.string_;
  }
  return false;
}

std::string Value::ToText() const {
  switch (type_) {
    case ValueType::kNull:
      return "";
    case ValueType::kInt64:
      return std::to_string(int_);
    case ValueType::kDouble: {
      // %.15g keeps round-trip fidelity for workload values while staying
      // human-readable in CSV files. to_chars with an explicit precision is
      // specified to print exactly what printf("%.15g") does, without the
      // format-string parse.
      char buf[32];
      auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), double_,
                                     std::chars_format::general, 15);
      LDV_CHECK(ec == std::errc()) << "double does not fit %.15g buffer";
      return std::string(buf, end);
    }
    case ValueType::kString:
      return string_;
  }
  return "";
}

Result<Value> Value::FromText(ValueType type, std::string_view text) {
  switch (type) {
    case ValueType::kNull:
      return Value::Null();
    case ValueType::kInt64: {
      if (text.empty()) return Value::Null();
      LDV_ASSIGN_OR_RETURN(int64_t v, ParseInt64(text));
      return Value::Int(v);
    }
    case ValueType::kDouble: {
      if (text.empty()) return Value::Null();
      LDV_ASSIGN_OR_RETURN(double v, ParseDouble(text));
      return Value::Real(v);
    }
    case ValueType::kString:
      return Value::Str(std::string(text));
  }
  return Status::Internal("bad value type");
}

void Value::Serialize(BufferWriter* w) const {
  w->PutU8(static_cast<uint8_t>(type_));
  switch (type_) {
    case ValueType::kNull:
      break;
    case ValueType::kInt64:
      w->PutVarint(int_);
      break;
    case ValueType::kDouble:
      w->PutDouble(double_);
      break;
    case ValueType::kString:
      w->PutString(string_);
      break;
  }
}

Result<Value> Value::Deserialize(BufferReader* r) {
  LDV_ASSIGN_OR_RETURN(uint8_t tag, r->GetU8());
  switch (static_cast<ValueType>(tag)) {
    case ValueType::kNull:
      return Value::Null();
    case ValueType::kInt64: {
      LDV_ASSIGN_OR_RETURN(int64_t v, r->GetVarint());
      return Value::Int(v);
    }
    case ValueType::kDouble: {
      LDV_ASSIGN_OR_RETURN(double v, r->GetDouble());
      return Value::Real(v);
    }
    case ValueType::kString: {
      LDV_ASSIGN_OR_RETURN(std::string v, r->GetString());
      return Value::Str(std::move(v));
    }
  }
  return Status::IOError("bad value tag");
}

uint64_t HashInt64Value(int64_t v) {
  return Fnv1a(
      std::string_view(reinterpret_cast<const char*>(&v), sizeof(v)));
}

uint64_t HashDoubleValue(double v) {
  double d = v == 0 ? 0 : v;  // normalize -0.0
  return Fnv1a(std::string_view(reinterpret_cast<const char*>(&d), sizeof(d)));
}

uint64_t HashStringValue(std::string_view v) { return Fnv1a(v); }

uint64_t Value::Hash() const {
  switch (type_) {
    case ValueType::kNull:
      return kNullValueHash;
    case ValueType::kInt64:
      return HashInt64Value(int_);
    case ValueType::kDouble:
      return HashDoubleValue(double_);
    case ValueType::kString:
      return HashStringValue(string_);
  }
  return 0;
}

uint64_t HashTuple(const Tuple& t) {
  uint64_t h = kTupleHashSeed;
  for (const Value& v : t) {
    h = CombineValueHash(h, v.Hash());
  }
  return h;
}

std::string TupleToText(const Tuple& t) {
  std::string out = "(";
  for (size_t i = 0; i < t.size(); ++i) {
    if (i > 0) out += ", ";
    if (t[i].type() == ValueType::kString) {
      out += '\'';
      out += t[i].ToText();
      out += '\'';
    } else if (t[i].is_null()) {
      out += "NULL";
    } else {
      out += t[i].ToText();
    }
  }
  out += ")";
  return out;
}

}  // namespace ldv::storage
