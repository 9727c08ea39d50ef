// SPICE-format netlist parser.
//
// Decks are the lingua franca of the domain; the parser accepts the subset
// every experiment here needs:
//
//   * comment, blank lines, leading + continuation lines
//   Rname n1 n2 value
//   Cname n1 n2 value
//   Lname n1 n2 value            (accepted so RC(L) decks load; see mna)
//   Vname n+ n- DC v
//   Vname n+ n- PWL(t1 v1 t2 v2 ...)
//   Vname n+ n- PULSE(v0 v1 tdelay trise thigh tfall)
//   Iname n+ n- <same source forms>
//   Mname d g s NMOS|PMOS [W=v] [L=v] [DVT=v] [DL=v]
//   .end
//
// Values take engineering suffixes (f p n u m k meg g t, case
// insensitive). MOSFET model parameters come from the Technology card
// passed in; W/L default to the technology minimums. Node "0" and "gnd"
// are ground; all other names allocate nodes on first use.
#pragma once

#include <iosfwd>
#include <stdexcept>
#include <string>

#include "circuit/netlist.hpp"
#include "circuit/technology.hpp"

namespace lcsf::circuit {

/// Thrown with a message containing the line number and the offending
/// text. `detail()` carries the bare message without the "netlist line
/// N:" prefix so re-throw sites can attach the real deck line exactly
/// once (line 0 means "no line context", e.g. a bare parse_value call).
class ParseError : public std::runtime_error {
 public:
  ParseError(std::size_t line, const std::string& what);
  std::size_t line() const { return line_; }
  const std::string& detail() const { return detail_; }

 private:
  std::size_t line_;
  std::string detail_;
};

/// Parse a full deck. Throws ParseError on malformed input.
Netlist parse_netlist(std::istream& in, const Technology& tech);
Netlist parse_netlist(const std::string& text, const Technology& tech);

/// Parse one engineering-notation value ("2.5p", "1MEG", "100").
/// Throws ParseError (line 0) on garbage.
double parse_value(const std::string& token);

}  // namespace lcsf::circuit
