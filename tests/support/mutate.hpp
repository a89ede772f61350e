// Seeded byte mutator shared by the parser fuzz tests.
//
// Damages a copy of a valid document with one to four mutations drawn from
// core::Rng: bit flips, overwrites with a token byte, truncations, and
// insertions of a token or arbitrary byte. The tokens steer mutants into the
// parser's interesting branches (JSON structure for the obs artifacts, the
// header bytes for the wire protocol). A fixed seed makes every mutant
// reproducible.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>

#include "core/rng.hpp"

namespace swiftest::test_support {

/// Applies one to four random mutations to `doc` (a std::string or a byte
/// vector).
template <typename Bytes>
Bytes mutate(Bytes doc, core::Rng& rng, std::string_view tokens) {
  using Byte = typename Bytes::value_type;
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  const int mutations = static_cast<int>(rng.uniform_int(1, 4));
  for (int m = 0; m < mutations && !doc.empty(); ++m) {
    switch (rng.uniform_int(0, 3)) {
      case 0:  // flip one bit
        doc[pick(doc.size())] ^= static_cast<Byte>(1u << pick(8));
        break;
      case 1:  // overwrite with a token byte
        doc[pick(doc.size())] = static_cast<Byte>(tokens[pick(tokens.size())]);
        break;
      case 2:  // truncate
        doc.resize(pick(doc.size()));
        break;
      default:  // insert a token or arbitrary byte
        doc.insert(doc.begin() + static_cast<std::ptrdiff_t>(pick(doc.size() + 1)),
                   rng.bernoulli(0.5) ? static_cast<Byte>(tokens[pick(tokens.size())])
                                      : static_cast<Byte>(pick(256)));
        break;
    }
  }
  return doc;
}

/// An exactly sized heap copy of `doc`, so ASan sees any read past its end
/// (a container's spare capacity would hide it).
template <typename Bytes>
std::unique_ptr<typename Bytes::value_type[]> exact_copy(const Bytes& doc) {
  std::unique_ptr<typename Bytes::value_type[]> exact(
      new typename Bytes::value_type[doc.size()]);
  for (std::size_t i = 0; i < doc.size(); ++i) exact[i] = doc[i];
  return exact;
}

}  // namespace swiftest::test_support
