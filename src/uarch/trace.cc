#include "uarch/trace.hh"

#include <sstream>

#include "common/logging.hh"

namespace slip
{

void
checkTracePolicy(const TracePolicy &policy)
{
    if (policy.maxLen == 0 || policy.maxLen > kMaxTraceSlots)
        SLIP_FATAL("trace policy maxLen must be in [1, ", kMaxTraceSlots,
                   "], got ", policy.maxLen);
}

std::string
to_string(const TraceId &id)
{
    std::ostringstream os;
    os << "{pc=0x" << std::hex << id.startPc << std::dec << " len="
       << unsigned(id.length) << " br=" << unsigned(id.numBranches)
       << " bits=";
    for (unsigned i = 0; i < id.numBranches; ++i)
        os << ((id.branchBits >> i) & 1 ? 'T' : 'N');
    os << "}";
    return os.str();
}

} // namespace slip
