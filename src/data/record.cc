#include "data/record.h"

#include <sstream>

namespace gs {
namespace {

// Per-record framing overhead (type tags + length prefixes).
constexpr Bytes kRecordOverhead = 8;
constexpr Bytes kStringOverhead = 4;
constexpr Bytes kElementOverhead = 4;

struct SizeVisitor {
  Bytes operator()(std::monostate) const { return 0; }
  Bytes operator()(std::int64_t) const { return 8; }
  Bytes operator()(double) const { return 8; }
  Bytes operator()(const std::string& s) const {
    return kStringOverhead + static_cast<Bytes>(s.size());
  }
  Bytes operator()(const std::vector<std::string>& v) const {
    Bytes total = kElementOverhead;
    for (const auto& s : v) {
      total += kStringOverhead + static_cast<Bytes>(s.size());
    }
    return total;
  }
  Bytes operator()(const std::vector<TermWeight>& v) const {
    Bytes total = kElementOverhead;
    for (const auto& [term, weight] : v) {
      (void)weight;
      total += kStringOverhead + static_cast<Bytes>(term.size()) + 8;
    }
    return total;
  }
};

struct PrintVisitor {
  std::ostringstream& os;
  void operator()(std::monostate) const { os << "()"; }
  void operator()(std::int64_t v) const { os << v; }
  void operator()(double v) const { os << v; }
  void operator()(const std::string& s) const { os << '"' << s << '"'; }
  void operator()(const std::vector<std::string>& v) const {
    os << "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i) os << ", ";
      os << v[i];
    }
    os << "]";
  }
  void operator()(const std::vector<TermWeight>& v) const {
    os << "{";
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i) os << ", ";
      os << v[i].first << ":" << v[i].second;
    }
    os << "}";
  }
};

}  // namespace

Bytes SerializedSize(const Value& value) {
  return std::visit(SizeVisitor{}, value);
}

Bytes SerializedSize(const Record& record) {
  return kRecordOverhead + kStringOverhead +
         static_cast<Bytes>(record.key.size()) + SerializedSize(record.value);
}

Bytes SerializedSize(const std::vector<Record>& records) {
  Bytes total = 0;
  for (const Record& r : records) total += SerializedSize(r);
  return total;
}

std::vector<Record> ConcatRecords(const std::vector<RecordsPtr>& chunks) {
  std::size_t n = 0;
  for (const RecordsPtr& c : chunks) n += c->size();
  std::vector<Record> out;
  out.reserve(n);
  for (const RecordsPtr& c : chunks) {
    out.insert(out.end(), c->begin(), c->end());
  }
  return out;
}

std::string ToString(const Value& value) {
  std::ostringstream os;
  std::visit(PrintVisitor{os}, value);
  return os.str();
}

std::string ToString(const Record& record) {
  std::ostringstream os;
  os << "(" << record.key << " -> ";
  std::visit(PrintVisitor{os}, record.value);
  os << ")";
  return os.str();
}

}  // namespace gs
