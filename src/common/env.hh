/**
 * @file
 * Validated environment-knob parsing. Every SLIPSTREAM_* knob follows
 * one contract (the one SLIPSTREAM_JOBS established): an unset
 * variable means the built-in default, a well-formed value wins, and
 * garbage earns a warning naming the variable and falls back to the
 * default — it never aborts a run. An empty or whitespace-only value
 * (`SLIPSTREAM_DETECT= cmd`) counts as *unset*, not as garbage: that
 * is how shells and supervisors clear a knob. Values are re-read on
 * every call so tests can override per-run.
 */

#ifndef SLIPSTREAM_COMMON_ENV_HH
#define SLIPSTREAM_COMMON_ENV_HH

#include <cstddef>
#include <cstdint>
#include <initializer_list>

namespace slip
{

/**
 * $name parsed as a non-negative integer. Garbage (non-numeric,
 * negative, trailing junk, overflow) warns and returns `fallback`.
 */
uint64_t envU64(const char *name, uint64_t fallback);

/**
 * $name parsed as a boolean: 1/true/yes/on and 0/false/no/off
 * (case-insensitive). Anything else warns and returns `fallback`.
 */
bool envFlag(const char *name, bool fallback);

/**
 * $name matched (case-sensitively) against a closed set of mode
 * names. Unset, empty, or whitespace-only returns `fallback`; a
 * listed value returns its index in `choices`.
 *
 * Unlike the numeric knobs above, mode knobs get the STRICT contract:
 * an unrecognized value throws FatalError naming the variable and
 * listing every valid choice. A typo'd mode would silently run the
 * wrong experiment for hours — failing fast is the only safe
 * fallback ($SLIPSTREAM_DETECT, $SLIPSTREAM_ISOLATION and
 * $SLIPSTREAM_ASTREAM_POLICY all parse through this).
 */
size_t envChoice(const char *name,
                 std::initializer_list<const char *> choices,
                 size_t fallback);

} // namespace slip

#endif // SLIPSTREAM_COMMON_ENV_HH
