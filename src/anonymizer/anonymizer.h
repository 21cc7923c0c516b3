// Anonymizer (Section 3.1): before the schema and metadata leave the client
// site, relation and attribute names are masked and non-numeric constants
// are mapped to numbers, so the vendor-side pipeline operates on a purely
// numeric database. The mapping is invertible at the client (the vendor
// never needs it). CCs name relations and attributes by index, but their
// provenance labels embed relation names ("<query>/filter(<relation>)",
// "|<relation>|"), and nothing here rewrites them: the client replaces the
// labels before the CCs leave.

#ifndef HYDRA_ANONYMIZER_ANONYMIZER_H_
#define HYDRA_ANONYMIZER_ANONYMIZER_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "catalog/schema.h"
#include "common/status.h"

namespace hydra {

// Per-column dictionary mapping original string values to consecutive
// numeric codes (dictionary encoding; order-preserving within insertion).
class ValueDictionary {
 public:
  // Returns the code for `value`, assigning the next code if unseen.
  int64_t Encode(const std::string& value);
  // Inverse mapping; NOT_FOUND if the code was never assigned.
  StatusOr<std::string> Decode(int64_t code) const;

  int64_t size() const { return static_cast<int64_t>(values_.size()); }

 private:
  std::unordered_map<std::string, int64_t> codes_;
  std::vector<std::string> values_;
};

// Anonymizes schema identifiers and provides per-attribute dictionaries.
class Anonymizer {
 public:
  // Returns a copy of `schema` with relation and attribute names replaced by
  // opaque identifiers ("r0", "r0.a1", ...). Domains and keys are preserved —
  // they are exactly what the vendor needs for LP formulation.
  Schema AnonymizeSchema(const Schema& schema);

  // Dictionary for a (relation, attribute) pair, created on first use.
  ValueDictionary& DictionaryFor(const AttrRef& ref);

  // The anonymized name assigned to an original relation name, or NOT_FOUND.
  StatusOr<std::string> AnonymizedRelationName(const std::string& name) const;

 private:
  std::unordered_map<std::string, std::string> relation_names_;
  std::unordered_map<AttrRef, ValueDictionary, AttrRefHash> dictionaries_;
};

}  // namespace hydra

#endif  // HYDRA_ANONYMIZER_ANONYMIZER_H_
