// The one JSON string escaper: the obs exporters, the serve protocol codec
// and lcsf_lint's findings document all write through it.
#pragma once

#include <string>

namespace lcsf::obs {

/// Escape a string for inclusion in a JSON document (no quotes added):
/// `"`, `\`, `\n`, `\r` and `\t` get their short forms, every other
/// control character `\u00XX`.
std::string json_escape(const std::string& s);

}  // namespace lcsf::obs
