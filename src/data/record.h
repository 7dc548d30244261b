// Records: the unit of data flowing through the engine.
//
// Datasets are vectors of key/value records. Values are a closed variant of
// the types the five HiBench-style workloads need; SerializedSize gives the
// wire size used for flow sizes and I/O cost, so traffic volumes reported by
// the benches are measured from actual data rather than assumed.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "common/units.h"

namespace gs {

// A (term, weight) pair, e.g. a word count inside a document vector.
using TermWeight = std::pair<std::string, double>;

using Value = std::variant<std::monostate,            // empty
                           std::int64_t,              // counts, ranks keys
                           double,                    // ranks, probabilities
                           std::string,               // text payloads
                           std::vector<std::string>,  // adjacency lists
                           std::vector<TermWeight>>;  // sparse vectors

struct Record {
  std::string key;
  Value value;

  bool operator==(const Record& other) const = default;
};

// Records shared immutably between a producer and its readers: a block's
// payload, or one gathered chunk of a shuffle shard.
using RecordsPtr = std::shared_ptr<const std::vector<Record>>;

// Copies the records of `chunks` into one vector, in chunk order.
std::vector<Record> ConcatRecords(const std::vector<RecordsPtr>& chunks);

// Serialized wire/disk size of a value or record, in bytes. The model
// approximates a compact binary encoding: fixed 8 bytes for numerics,
// length-prefixed strings, and per-element framing for containers.
Bytes SerializedSize(const Value& value);
Bytes SerializedSize(const Record& record);
Bytes SerializedSize(const std::vector<Record>& records);

// Human-readable rendering for logs and test diagnostics.
std::string ToString(const Value& value);
std::string ToString(const Record& record);

}  // namespace gs
