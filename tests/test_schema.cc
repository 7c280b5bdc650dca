/**
 * The trial identity, field by field: perturbing any field a field
 * list visits must change the trial key and must survive the wire
 * codec and the JSONL reader/writer; perturbing a deployment setting
 * must leave the key alone.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "harness/fault_campaign.hh"
#include "harness/schema.hh"

namespace slip
{
namespace
{

/**
 * Changes the `target`-th leaf field a field list visits (depth
 * first) and records its dotted name; `name` stays empty when the
 * list has fewer leaves.
 */
struct Perturb
{
    size_t target = 0;
    size_t seen = 0;
    std::string prefix;
    std::string name;

    template <class M>
    void
    operator()(const char *field, M &m)
    {
        if constexpr (schema::Described<M>) {
            const size_t mark = prefix.size();
            prefix += field;
            prefix += '.';
            fields(m, *this);
            prefix.resize(mark);
        } else if (seen++ == target) {
            name = prefix + field;
            bump(m);
        }
    }

    bool optionalTail(bool present) const { return present; }

    template <class M>
    static void
    bump(M &m)
    {
        if constexpr (std::is_same_v<M, bool>)
            m = !m;
        else if constexpr (std::is_enum_v<M>)
            m = M((unsigned(m) + 1) % kEnumInfo<M>.count);
        else if constexpr (std::is_integral_v<M>)
            m = M(m + 1);
        else if constexpr (std::is_same_v<M, std::string>)
            m += "x";
        else
            m.emplace_back();
    }
};

/** `changed` differs from `base` on the wire and in JSONL, and both
 *  encodings read back to exactly what was written. */
template <class T>
void
expectRoundTrips(const T &base, const T &changed)
{
    const std::string bytes = schema::encode(changed);
    EXPECT_NE(bytes, schema::encode(base)) << "field missing on the wire";
    EXPECT_EQ(schema::encode(schema::decode<T>(bytes)), bytes);

    const auto jsonl = [](const T &v) {
        schema::JsonWriter w;
        fields(v, w);
        return w.line();
    };
    const std::string line = jsonl(changed);
    EXPECT_NE(line, jsonl(base)) << "field missing from JSONL";
    T back{};
    schema::JsonReader r(line);
    fields(back, r);
    EXPECT_TRUE(r.ok()) << line;
    EXPECT_EQ(jsonl(back), line);
}

/** Hand `check` a copy of `base` per leaf field, that field changed;
 *  returns the number of leaves. */
template <class T, class Check>
size_t
forEachPerturbation(const T &base, Check check)
{
    for (size_t n = 0;; ++n) {
        T copy = base;
        Perturb p;
        p.target = n;
        fields(copy, p);
        if (p.name.empty())
            return n;
        SCOPED_TRACE(p.name);
        check(copy);
    }
}

struct TrialIdentity : ::testing::Test
{
    void
    SetUp() override
    {
        cfg.workloads = {"compress"};
        cfg.size = WorkloadSize::Test;
        cfg.trialsPerWorkload = 1;
        specs = planCampaignTrials(cfg);
        ASSERT_EQ(specs.size(), 1u);
        ASSERT_FALSE(specs[0].plans.empty());
        base = campaignTrialKey(cfg, specs[0], 0);
    }

    FaultCampaignConfig cfg;
    std::vector<CampaignTrialSpec> specs;
    TrialKey base;
};

TEST_F(TrialIdentity, EveryCampaignIdentityFieldChangesTheKeyAndRoundTrips)
{
    const size_t n =
        forEachPerturbation(cfg, [&](const FaultCampaignConfig &changed) {
            EXPECT_NE(campaignTrialKey(changed, specs[0], 0), base);
            expectRoundTrips(cfg, changed);
        });
    EXPECT_EQ(n, 10u);
}

TEST_F(TrialIdentity, EveryParameterChangesTheKeyAndRoundTrips)
{
    const size_t n =
        forEachPerturbation(cfg.params, [&](const SlipstreamParams &p) {
            FaultCampaignConfig changed = cfg;
            changed.params = p;
            EXPECT_NE(campaignTrialKey(changed, specs[0], 0), base);
            expectRoundTrips(cfg.params, p);
        });
    EXPECT_EQ(n, 79u);
}

TEST_F(TrialIdentity, EveryPlanFieldChangesTheKeyAndRoundTrips)
{
    const FaultPlan &plan = specs[0].plans[0];
    const size_t n =
        forEachPerturbation(plan, [&](const FaultPlan &changed) {
            CampaignTrialSpec spec = specs[0];
            spec.plans[0] = changed;
            EXPECT_NE(campaignTrialKey(cfg, spec, 0), base);
            expectRoundTrips(plan, changed);
        });
    EXPECT_EQ(n, 4u);
}

TEST_F(TrialIdentity, SpecAndIndexChangeTheKey)
{
    CampaignTrialSpec spec = specs[0];
    spec.maxCycles += 1;
    EXPECT_NE(campaignTrialKey(cfg, spec, 0), base);
    spec = specs[0];
    spec.workload = "renamed";
    EXPECT_NE(campaignTrialKey(cfg, spec, 0), base);
    spec = specs[0];
    spec.plans.push_back(spec.plans[0]);
    EXPECT_NE(campaignTrialKey(cfg, spec, 0), base);
    EXPECT_NE(campaignTrialKey(cfg, specs[0], 1), base);

    // A different program image under the same workload name.
    FaultCampaignConfig small = cfg;
    small.size = WorkloadSize::Small;
    spec = planCampaignTrials(small)[0];
    spec.workload = specs[0].workload;
    spec.plans = specs[0].plans;
    spec.maxCycles = specs[0].maxCycles;
    EXPECT_NE(campaignTrialKey(cfg, spec, 0), base);
}

TEST_F(TrialIdentity, DeploymentSettingsLeaveTheKeyAlone)
{
    FaultCampaignConfig d = cfg;
    d.isolation = IsolationMode::Fork;
    d.workers = 7;
    d.journalPath = "elsewhere.jsonl";
    d.resume = true;
    d.quarantineDir = "elsewhere/quarantine";
    d.journalFsync = 1;
    d.trialHook = [](size_t) {};
    EXPECT_EQ(campaignTrialKey(d, specs[0], 0), base);
}

TEST_F(TrialIdentity, KeyHashesTheEffectiveParameters)
{
    // Reliable mode turns removal off whether or not the config says
    // so itself: slipd and slip_campaign spell it differently and
    // must agree on the key.
    FaultCampaignConfig implicit = cfg;
    implicit.reliableMode = true;
    FaultCampaignConfig spelled = implicit;
    spelled.params.irPred.enabled = false;
    EXPECT_EQ(campaignTrialKey(implicit, specs[0], 0),
              campaignTrialKey(spelled, specs[0], 0));
}

} // namespace
} // namespace slip
