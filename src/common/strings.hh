/**
 * @file
 * Small string helpers shared by the CLI driver and the grid parser,
 * so GridSpec parsing, preset lookup, and the driver share one tested
 * implementation.
 */

#ifndef GRIFFIN_COMMON_STRINGS_HH
#define GRIFFIN_COMMON_STRINGS_HH

#include <cstddef>
#include <string>
#include <vector>

namespace griffin {

/**
 * Split on `sep`, dropping empty items — so trailing separators and
 * doubled separators are harmless ("a,,b," -> {"a", "b"}).
 */
std::vector<std::string> splitList(const std::string &text, char sep = ',');

/**
 * Like splitList, but a separator inside (...) or [...] does not
 * split: "B(2,0,0,off),B(2,1,0,on)" -> two items.  Needed because
 * routing-spec architecture names embed commas.  Unbalanced closers
 * are treated as literal characters (depth never goes negative).
 */
std::vector<std::string> splitTopLevel(const std::string &text,
                                       char sep = ',');

/** Strip leading and trailing whitespace (space, tab, CR, LF). */
std::string trim(const std::string &s);

/**
 * Levenshtein edit distance — used for "did you mean ...?" diagnostics
 * when an axis or flag name does not match anything known.
 */
std::size_t editDistance(const std::string &a, const std::string &b);

/**
 * The `candidates` entry closest to `name`: substring containment in
 * either direction wins outright, then edit distance (first candidate
 * on ties, in candidate order).  Empty string for no candidates.
 */
std::string nearestName(const std::string &name,
                        const std::vector<std::string> &candidates);

/**
 * Shortest decimal form that round-trips the double (std::to_chars):
 * deterministic for equal inputs and locale-independent.  The JSON
 * sink's number formatting and grid-range value tokens both use this.
 */
std::string formatShortestDouble(double v);

/**
 * RFC 4180 CSV field quoting: a field containing a comma, a double
 * quote, or a line break is wrapped in double quotes with embedded
 * quotes doubled; anything else passes through unchanged.  Routing-spec
 * architecture names like `B(4,0,1,on)` make this load-bearing — an
 * unquoted one shifts every downstream column of the row.
 */
std::string csvEscape(const std::string &field);

} // namespace griffin

#endif // GRIFFIN_COMMON_STRINGS_HH
