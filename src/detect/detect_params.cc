#include "detect/detect_params.hh"

#include "common/env.hh"
#include "common/logging.hh"

namespace slip
{

namespace
{

constexpr const char *kBackendNames[kNumDetectBackends] = {
    "slipstream",
    "replay",
    "checker",
};

} // namespace

const char *
detectBackendName(DetectBackendKind kind)
{
    const auto i = unsigned(kind);
    return i < kNumDetectBackends ? kBackendNames[i] : "?";
}

DetectBackendKind
detectBackendFromEnv(DetectBackendKind fallback)
{
    return DetectBackendKind(envChoice(
        "SLIPSTREAM_DETECT", {"slipstream", "replay", "checker"},
        size_t(fallback)));
}

DetectParams
detectParamsFromEnv(DetectParams base)
{
    DetectParams p = base;
    p.kind = detectBackendFromEnv(base.kind);
    p.replayWindow = envU64("SLIPSTREAM_REPLAY_WINDOW", base.replayWindow);
    if (p.replayWindow == 0) {
        SLIP_WARN("ignoring SLIPSTREAM_REPLAY_WINDOW=0 (a zero-length "
                  "replay window cannot check anything); using ",
                  base.replayWindow ? base.replayWindow : 256);
        p.replayWindow = base.replayWindow ? base.replayWindow : 256;
    }
    const uint64_t bw =
        envU64("SLIPSTREAM_CHECKER_BANDWIDTH", base.checkerBandwidth);
    if (bw == 0) {
        SLIP_WARN("ignoring SLIPSTREAM_CHECKER_BANDWIDTH=0 (a checker "
                  "that validates nothing per cycle never drains); "
                  "using ",
                  base.checkerBandwidth ? base.checkerBandwidth : 2);
        p.checkerBandwidth =
            base.checkerBandwidth ? base.checkerBandwidth : 2;
    } else {
        p.checkerBandwidth = unsigned(bw);
    }
    return p;
}

} // namespace slip
