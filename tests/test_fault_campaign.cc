#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/logging.hh"
#include "harness/fault_campaign.hh"

namespace slip
{
namespace
{

FaultCampaignConfig
smallConfig()
{
    FaultCampaignConfig cfg;
    cfg.workloads = {"m88ksim", "li"};
    cfg.trialsPerWorkload = 6;
    // Keep test journals out of results/.
    cfg.journalPath = "test_fault_campaign.journal.jsonl";
    return cfg;
}

uint64_t
outcomeSum(const CampaignTally &t)
{
    uint64_t sum = 0;
    for (unsigned o = 0; o < kNumTrialOutcomes; ++o)
        sum += t.byOutcome[o];
    return sum;
}

TEST(FaultCampaign, EveryTrialClassifiedAndNoneHang)
{
    const FaultCampaignConfig cfg = smallConfig();
    const FaultCampaignResult result = runFaultCampaign(cfg);

    ASSERT_EQ(result.trials.size(),
              cfg.workloads.size() * cfg.trialsPerWorkload);
    EXPECT_EQ(result.total.trials, result.trials.size());
    // Every trial lands in exactly one outcome bucket.
    EXPECT_EQ(outcomeSum(result.total), result.total.trials);
    for (const auto &[name, tally] : result.perWorkload)
        EXPECT_EQ(outcomeSum(tally), tally.trials) << name;
    // The cycle cap plus watchdog mean no trial may hang.
    EXPECT_EQ(result.total.outcomes(TrialOutcome::Hung), 0u);
    // The steady-state injection window must actually land faults.
    EXPECT_GT(result.total.faultsInjected, 0u);
    for (const TrialRecord &trial : result.trials) {
        EXPECT_FALSE(trial.metrics.hung) << trial.workload;
        EXPECT_GE(trial.plans.size(), cfg.minFaultsPerTrial);
        EXPECT_LE(trial.plans.size(), cfg.maxFaultsPerTrial);
    }
}

TEST(FaultCampaign, DeterministicAcrossWorkerCounts)
{
    const FaultCampaignConfig cfg = smallConfig();
    const char *prior = std::getenv("SLIPSTREAM_JOBS");
    const std::string saved = prior ? prior : "";

    setenv("SLIPSTREAM_JOBS", "1", 1);
    const std::string serial = campaignJson(cfg, runFaultCampaign(cfg));
    setenv("SLIPSTREAM_JOBS", "3", 1);
    const std::string parallel =
        campaignJson(cfg, runFaultCampaign(cfg));

    if (prior)
        setenv("SLIPSTREAM_JOBS", saved.c_str(), 1);
    else
        unsetenv("SLIPSTREAM_JOBS");

    EXPECT_EQ(serial, parallel);
}

TEST(FaultCampaign, ReliableModeHasNoSilentCorruption)
{
    FaultCampaignConfig cfg = smallConfig();
    cfg.reliableMode = true;
    cfg.trialsPerWorkload = 8;
    const FaultCampaignResult result = runFaultCampaign(cfg);

    EXPECT_EQ(result.total.outcomes(TrialOutcome::SilentCorrupt), 0u);
    EXPECT_EQ(result.total.outcomes(TrialOutcome::DetectedButCorrupt),
              0u);
    EXPECT_EQ(result.total.outcomes(TrialOutcome::Hung), 0u);
    // Full redundancy: the default reliable target mix always finds
    // a victim.
    EXPECT_EQ(result.total.faultsInjected, result.total.faultsPlanned);
}

TEST(FaultCampaign, ReliableTargetsExcludeMemoryAndPredictor)
{
    for (FaultTarget t : defaultCampaignTargets(true)) {
        EXPECT_NE(t, FaultTarget::MemoryCell);
        EXPECT_NE(t, FaultTarget::IRPredictor);
    }
    // The slipstream mix covers every target.
    EXPECT_EQ(defaultCampaignTargets(false).size(), 8u);
}

TEST(FaultCampaign, ZeroFaultRangePlansFaultFreeTrials)
{
    // slipd's bench sweeps: [0, 0] faults per trial plans the same
    // trials and cycle caps as a faulty campaign, with no faults.
    const FaultCampaignConfig faulty = smallConfig();
    FaultCampaignConfig clean = faulty;
    clean.minFaultsPerTrial = clean.maxFaultsPerTrial = 0;
    const std::vector<CampaignTrialSpec> a = planCampaignTrials(faulty);
    const std::vector<CampaignTrialSpec> b = planCampaignTrials(clean);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(b[i].entry, a[i].entry);
        EXPECT_EQ(b[i].workload, a[i].workload);
        EXPECT_EQ(b[i].maxCycles, a[i].maxCycles);
        EXPECT_FALSE(a[i].plans.empty());
        EXPECT_TRUE(b[i].plans.empty());
    }
}

TEST(FaultCampaign, JsonReportIsWellFormedAndWritable)
{
    FaultCampaignConfig cfg = smallConfig();
    cfg.trialsPerWorkload = 2;
    const FaultCampaignResult result = runFaultCampaign(cfg);
    const std::string json = campaignJson(cfg, result);

    // Shape: balanced braces/brackets, the report keys present.
    long braces = 0, brackets = 0;
    for (char c : json) {
        braces += c == '{' ? 1 : c == '}' ? -1 : 0;
        brackets += c == '[' ? 1 : c == ']' ? -1 : 0;
        EXPECT_GE(braces, 0);
        EXPECT_GE(brackets, 0);
    }
    EXPECT_EQ(braces, 0);
    EXPECT_EQ(brackets, 0);
    for (const char *key :
         {"\"campaign\"", "\"mode\"", "\"outcomes\"", "\"targets\"",
          "\"detection_latency_cycles\"", "\"workloads\"",
          "\"detection_latency_histogram\"", "\"silent_corrupt\"",
          "\"degraded_runs\""})
        EXPECT_NE(json.find(key), std::string::npos) << key;

    // Per-target histogram counts match the scalar sample count, so
    // the distribution is complete, not a subset.
    uint64_t histCount = 0;
    for (const auto &[target, hist] : result.total.latencyByTarget)
        histCount += hist.count();
    EXPECT_EQ(histCount, result.total.latencySamples);

    // writeFaultReport produces a readable JSON array at the path,
    // and the atomic temp sibling is gone once the rename lands.
    const std::string path = "test_fault_campaign_report.json";
    writeFaultReport({json, json}, path);
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();
    EXPECT_EQ(text.front(), '[');
    EXPECT_NE(text.find("\"campaign\""), std::string::npos);
    EXPECT_FALSE(std::ifstream(path + ".tmp").good());
    std::remove(path.c_str());
}

TEST(FaultCampaign, ReportFailureWarnsInsteadOfThrowing)
{
    // Parent "directory" is a regular file: creation must fail, and
    // the failure must be a warning, not an exception or a crash.
    const std::string blocker = "test_fault_report_blocker";
    {
        std::ofstream out(blocker, std::ios::trunc);
        out << "not a directory\n";
    }
    EXPECT_NO_THROW(
        writeFaultReport({"{}"}, blocker + "/sub/report.json"));
    std::remove(blocker.c_str());
}

TEST(FaultCampaign, OutcomeNamesRoundTripThroughTheJournal)
{
    const FaultCampaignConfig cfg = smallConfig();
    std::string campaign;
    uint64_t seed = 0, trial = 0;
    for (unsigned o = 0; o < kNumTrialOutcomes; ++o) {
        TrialRecord t;
        t.outcome = TrialOutcome(o);
        const std::string line = campaignTrialLine(cfg, 3, t);
        EXPECT_NE(line.find(std::string("\"outcome\":\"") +
                            trialOutcomeName(t.outcome) + "\""),
                  std::string::npos)
            << line;
        TrialRecord back;
        ASSERT_TRUE(readCampaignTrialLine(line, campaign, seed, trial,
                                          back))
            << line;
        EXPECT_EQ(back.outcome, t.outcome);
        EXPECT_EQ(trial, 3u);
    }
    TrialRecord unknown;
    std::string line = campaignTrialLine(cfg, 0, unknown);
    const std::string name = trialOutcomeName(unknown.outcome);
    line.replace(line.find(name), name.size(), "not_an_outcome");
    EXPECT_FALSE(readCampaignTrialLine(line, campaign, seed, trial,
                                       unknown));
}

/** Every journaled field comes back exactly, u64s included. */
TEST(FaultCampaign, JournalLineRoundTripsEveryField)
{
    FaultCampaignConfig cfg = smallConfig();
    cfg.name = "odd \"name\"\\";
    cfg.seed = ~uint64_t(0);
    TrialRecord t;
    t.key = {0x0123456789abcdefULL, 0xfedcba9876543210ULL};
    t.workload = "li";
    t.outcome = TrialOutcome::Crashed;
    t.faultsPlanned = 3;
    t.faultsInjected = 2;
    t.faultsDetected = 1;
    t.degraded = true;
    t.latencySamples = 1;
    t.latencyTotal = ~uint64_t(0) - 1;
    t.latencyMax = 99;
    t.latencyByTarget["a_stream"].sample(40);
    t.latencyByTarget["r_pipeline"].sample(1u << 20);
    t.cycles = 123456789012345ULL;
    t.detectBackend = "replay";
    t.detectChecked = 7;
    t.detectMismatches = 8;
    t.detectExternal = 9;
    t.detectReplays = 10;
    t.detectReplayedInsts = 11;
    t.detectOverhead = 12;
    t.aStreamPolicy = "runahead";
    t.error = "line\nbreak \"quoted\"";
    t.crashSignal = 11;
    t.crashExit = -1;
    t.crashPhase = "run";
    const std::string line = campaignTrialLine(cfg, 5, t);

    std::string campaign;
    uint64_t seed = 0, trial = 0;
    TrialRecord back;
    ASSERT_TRUE(readCampaignTrialLine(line, campaign, seed, trial, back))
        << line;
    EXPECT_EQ(campaign, cfg.name);
    EXPECT_EQ(seed, cfg.seed);
    EXPECT_EQ(trial, 5u);
    EXPECT_EQ(campaignTrialLine(cfg, 5, back), line);
    EXPECT_EQ(back.key, t.key);
    EXPECT_EQ(back.latencyTotal, t.latencyTotal);
    EXPECT_EQ(back.crashExit, -1);
    EXPECT_EQ(back.error, t.error);

    // Healthy trials omit the triage group entirely.
    TrialRecord healthy = t;
    healthy.crashPhase.clear();
    const std::string short_ = campaignTrialLine(cfg, 5, healthy);
    EXPECT_EQ(short_.find("\"signal\""), std::string::npos);
    TrialRecord healthyBack;
    ASSERT_TRUE(readCampaignTrialLine(short_, campaign, seed, trial,
                                      healthyBack));
    EXPECT_TRUE(healthyBack.crashPhase.empty());
    EXPECT_EQ(campaignTrialLine(cfg, 5, healthyBack), short_);

    // A torn line never half-parses.
    for (size_t cut = 1; cut < line.size(); cut += 7)
        EXPECT_FALSE(readCampaignTrialLine(line.substr(0, cut), campaign,
                                           seed, trial, back))
            << cut;
}

/**
 * The tentpole acceptance property: kill a campaign at any point,
 * rerun in resume mode, and the final report comes out byte-identical
 * — for any SLIPSTREAM_JOBS. Simulated here by truncating the journal
 * at several cut points; one leg also appends a torn (half-written)
 * final line, which resume must skip, not choke on.
 */
TEST(FaultCampaign, ResumeReproducesTheReportByteForByte)
{
    FaultCampaignConfig cfg = smallConfig();
    cfg.name = "resume_determinism";
    cfg.trialsPerWorkload = 4; // 8 trials across the two workloads
    cfg.journalPath = "test_fault_campaign.resume.jsonl";

    const char *prior = std::getenv("SLIPSTREAM_JOBS");
    const std::string saved = prior ? prior : "";

    const FaultCampaignResult full = runFaultCampaign(cfg);
    const std::string expected = campaignJson(cfg, full);

    // Capture the uninterrupted run's journal lines.
    std::vector<std::string> lines;
    {
        std::ifstream in(cfg.journalPath);
        std::string line;
        while (std::getline(in, line))
            if (!line.empty())
                lines.push_back(line);
    }
    ASSERT_EQ(lines.size(), full.trials.size());

    const size_t cuts[] = {0, 1, lines.size() / 2, lines.size() - 1};
    for (size_t cut : cuts) {
        for (const char *jobs : {"1", "3"}) {
            SCOPED_TRACE(std::string("cut=") + std::to_string(cut) +
                         " jobs=" + jobs);
            setenv("SLIPSTREAM_JOBS", jobs, 1);
            // A kill after `cut` completed trials: journal holds their
            // lines plus, on one leg, a torn line from the victim.
            {
                std::ofstream out(cfg.journalPath, std::ios::trunc);
                for (size_t i = 0; i < cut; ++i)
                    out << lines[i] << '\n';
                if (cut == 1)
                    out << lines[cut].substr(0, lines[cut].size() / 2);
            }
            FaultCampaignConfig again = cfg;
            again.resume = true;
            const std::string got =
                campaignJson(again, runFaultCampaign(again));
            EXPECT_EQ(got, expected);
        }
    }

    if (prior)
        setenv("SLIPSTREAM_JOBS", saved.c_str(), 1);
    else
        unsetenv("SLIPSTREAM_JOBS");
    std::remove(cfg.journalPath.c_str());
}

/**
 * Kill-during-write interaction: the journal ends in a torn partial
 * line AND the last *complete* record is a timed-out trial. Resume
 * must (a) skip the torn line and re-run only that trial, and (b)
 * restore the timed_out record as a terminal result — journaled
 * timeouts are not retried, or a resumed report could disagree with
 * the run it resumed.
 */
TEST(FaultCampaign, ResumeRestoresTimedOutRecordBeforeTornLine)
{
    FaultCampaignConfig cfg = smallConfig();
    cfg.name = "resume_torn_timeout";
    cfg.trialsPerWorkload = 4; // 8 trials across the two workloads
    cfg.journalPath = "test_fault_campaign.torn.jsonl";

    const FaultCampaignResult full = runFaultCampaign(cfg);
    std::vector<std::string> lines;
    {
        std::ifstream in(cfg.journalPath);
        std::string line;
        while (std::getline(in, line))
            if (!line.empty())
                lines.push_back(line);
    }
    ASSERT_EQ(lines.size(), full.trials.size());
    const size_t timedOutTrial = lines.size() - 2;
    const size_t tornTrial = lines.size() - 1;
    // Precondition: the live run did NOT time out here, so if resume
    // were to quietly re-run the trial it would get a different
    // outcome and the assertion below would catch it.
    ASSERT_NE(full.trials[timedOutTrial].outcome,
              TrialOutcome::TimedOut);

    // Tamper the last complete record into a timeout, then append
    // the first half of the final record as the torn line a killed
    // writer leaves behind.
    std::string tampered = lines[timedOutTrial];
    const std::string key = "\"outcome\":\"";
    const size_t at = tampered.find(key);
    ASSERT_NE(at, std::string::npos);
    const size_t valueEnd = tampered.find('"', at + key.size());
    ASSERT_NE(valueEnd, std::string::npos);
    tampered.replace(at + key.size(), valueEnd - (at + key.size()),
                     "timed_out");
    {
        std::ofstream out(cfg.journalPath, std::ios::trunc);
        for (size_t i = 0; i < timedOutTrial; ++i)
            out << lines[i] << '\n';
        out << tampered << '\n';
        out << lines[tornTrial].substr(0, lines[tornTrial].size() / 2);
    }

    FaultCampaignConfig again = cfg;
    again.resume = true;
    const FaultCampaignResult resumed = runFaultCampaign(again);
    const std::string resumedJson = campaignJson(again, resumed);

    ASSERT_EQ(resumed.trials.size(), full.trials.size());
    // The tampered record was restored, not re-executed.
    EXPECT_EQ(resumed.trials[timedOutTrial].outcome,
              TrialOutcome::TimedOut);
    EXPECT_EQ(resumed.total.outcomes(TrialOutcome::TimedOut),
              full.total.outcomes(TrialOutcome::TimedOut) + 1);
    // The torn trial was re-run and reproduced the live run exactly.
    EXPECT_EQ(resumed.trials[tornTrial].outcome,
              full.trials[tornTrial].outcome);
    EXPECT_EQ(resumed.trials[tornTrial].cycles,
              full.trials[tornTrial].cycles);
    // Every other trial came back verbatim.
    for (size_t i = 0; i < timedOutTrial; ++i) {
        EXPECT_EQ(resumed.trials[i].outcome, full.trials[i].outcome)
            << "trial " << i;
        EXPECT_EQ(resumed.trials[i].cycles, full.trials[i].cycles)
            << "trial " << i;
    }
    EXPECT_EQ(outcomeSum(resumed.total), resumed.total.trials);

    // The re-run appended the torn trial's record, so a second resume
    // restores all trials (timeout included, still without retrying
    // it) and must render the identical report.
    const std::string secondJson =
        campaignJson(again, runFaultCampaign(again));
    EXPECT_EQ(secondJson, resumedJson);

    std::remove(cfg.journalPath.c_str());
}

/** A journal from a different campaign or seed must never leak in. */
TEST(FaultCampaign, ResumeIgnoresForeignJournalEntries)
{
    FaultCampaignConfig cfg = smallConfig();
    cfg.name = "resume_isolation";
    cfg.workloads = {"m88ksim"};
    cfg.trialsPerWorkload = 2;
    cfg.journalPath = "test_fault_campaign.foreign.jsonl";

    const FaultCampaignResult fresh = runFaultCampaign(cfg);
    const std::string expected = campaignJson(cfg, fresh);

    // Poison the journal with entries that would corrupt the tallies
    // if resume matched them: wrong campaign, wrong seed, wrong
    // workload, out-of-range trial, unknown outcome.
    {
        std::ofstream out(cfg.journalPath, std::ios::trunc);
        out << "{\"campaign\":\"someone_else\",\"seed\":" << cfg.seed
            << ",\"trial\":0,\"workload\":\"m88ksim\","
               "\"outcome\":\"crashed\",\"planned\":99,\"injected\":99,"
               "\"detected\":99,\"degraded\":1,\"latency_samples\":9,"
               "\"latency_total\":9,\"latency_max\":9,\"cycles\":9,"
               "\"error\":\"\"}\n";
        out << "{\"campaign\":\"resume_isolation\",\"seed\":1,"
               "\"trial\":0,\"workload\":\"m88ksim\","
               "\"outcome\":\"crashed\",\"planned\":99,\"injected\":99,"
               "\"detected\":99,\"degraded\":1,\"latency_samples\":9,"
               "\"latency_total\":9,\"latency_max\":9,\"cycles\":9,"
               "\"error\":\"\"}\n";
        out << "{\"campaign\":\"resume_isolation\",\"seed\":"
            << cfg.seed
            << ",\"trial\":0,\"workload\":\"wrong_workload\","
               "\"outcome\":\"crashed\",\"planned\":99,\"injected\":99,"
               "\"detected\":99,\"degraded\":1,\"latency_samples\":9,"
               "\"latency_total\":9,\"latency_max\":9,\"cycles\":9,"
               "\"error\":\"\"}\n";
        out << "{\"campaign\":\"resume_isolation\",\"seed\":"
            << cfg.seed
            << ",\"trial\":999,\"workload\":\"m88ksim\","
               "\"outcome\":\"crashed\",\"planned\":99,\"injected\":99,"
               "\"detected\":99,\"degraded\":1,\"latency_samples\":9,"
               "\"latency_total\":9,\"latency_max\":9,\"cycles\":9,"
               "\"error\":\"\"}\n";
        out << "{\"campaign\":\"resume_isolation\",\"seed\":"
            << cfg.seed
            << ",\"trial\":0,\"workload\":\"m88ksim\","
               "\"outcome\":\"abducted\",\"planned\":99,\"injected\":99,"
               "\"detected\":99,\"degraded\":1,\"latency_samples\":9,"
               "\"latency_total\":9,\"latency_max\":9,\"cycles\":9,"
               "\"error\":\"\"}\n";
    }
    FaultCampaignConfig again = cfg;
    again.resume = true;
    const std::string got =
        campaignJson(again, runFaultCampaign(again));
    EXPECT_EQ(got, expected);
    std::remove(cfg.journalPath.c_str());
}

/**
 * Resume matches a journal line on the trial's whole identity, not on
 * its name, seed and index: a journal written at `test` size, resumed
 * at `small`, shares every one of those but must re-run every trial
 * and report exactly what a fresh `small` campaign reports.
 */
TEST(FaultCampaign, ResumeAtAnotherSizeReRunsEveryTrial)
{
    FaultCampaignConfig cfg = smallConfig();
    cfg.name = "resume_cross_size";
    cfg.workloads = {"compress"};
    cfg.trialsPerWorkload = 2;
    cfg.size = WorkloadSize::Test;
    cfg.journalPath = "test_fault_campaign.cross_size.jsonl";
    runFaultCampaign(cfg);

    FaultCampaignConfig fresh = cfg;
    fresh.size = WorkloadSize::Small;
    fresh.journalPath = "test_fault_campaign.cross_size_fresh.jsonl";
    const std::string expected =
        campaignJson(fresh, runFaultCampaign(fresh));

    FaultCampaignConfig again = fresh;
    again.journalPath = cfg.journalPath;
    again.resume = true;
    const FaultCampaignResult resumed = runFaultCampaign(again);
    EXPECT_EQ(campaignJson(again, resumed), expected);
    // Only trials executed in this process carry metrics.
    for (const TrialRecord &t : resumed.trials)
        EXPECT_GT(t.metrics.retired, 0u) << "adopted a test-size line";
    std::remove(cfg.journalPath.c_str());
    std::remove(fresh.journalPath.c_str());
}

/**
 * The policy matrix: for every A-stream shortening policy, the
 * campaign journal must come out byte-identical across worker counts
 * AND isolation modes. A policy that consulted wall-clock, worker
 * identity, or shared mutable state would diverge here.
 */
TEST(FaultCampaign, PolicyMatrixJournalsAreByteIdentical)
{
    const char *prior = std::getenv("SLIPSTREAM_JOBS");
    const std::string saved = prior ? prior : "";
    const std::string journal = "test_fault_campaign.policy.jsonl";

    for (size_t p = 0; p < kNumAStreamPolicies; ++p) {
        const AStreamPolicyKind kind = AStreamPolicyKind(p);
        const std::string policyName = aStreamPolicyName(kind);
        FaultCampaignConfig cfg;
        cfg.name = "policy_matrix_" + policyName;
        cfg.workloads = {"m88ksim"};
        cfg.trialsPerWorkload = 3;
        cfg.journalPath = journal;
        cfg.params.aPolicy.kind = kind;

        std::string reference;
        for (const char *jobs : {"1", "3"}) {
            for (IsolationMode iso :
                 {IsolationMode::None, IsolationMode::Fork}) {
                SCOPED_TRACE(policyName + " jobs=" + jobs +
                             " isolation=" +
                             (iso == IsolationMode::Fork ? "fork"
                                                         : "none"));
                setenv("SLIPSTREAM_JOBS", jobs, 1);
                std::remove(journal.c_str());
                cfg.isolation = iso;
                runFaultCampaign(cfg);
                std::ifstream in(journal, std::ios::binary);
                ASSERT_TRUE(in.good());
                std::stringstream buf;
                buf << in.rdbuf();
                if (reference.empty())
                    reference = buf.str();
                else
                    EXPECT_EQ(buf.str(), reference);
            }
        }
        // Every line carries the policy tag resume matches against.
        EXPECT_NE(reference.find("\"policy\":\"" + policyName + "\""),
                  std::string::npos);
    }

    if (prior)
        setenv("SLIPSTREAM_JOBS", saved.c_str(), 1);
    else
        unsetenv("SLIPSTREAM_JOBS");
    std::remove(journal.c_str());
}

/** The journal lines of a finished campaign. */
std::vector<std::string>
journalLines(const std::string &path)
{
    std::vector<std::string> lines;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line))
        if (!line.empty())
            lines.push_back(line);
    return lines;
}

/** `line` with its outcome replaced. */
std::string
withOutcome(std::string line, const std::string &outcome)
{
    const std::string key = "\"outcome\":\"";
    const size_t at = line.find(key) + key.size();
    line.replace(at, line.find('"', at) - at, outcome);
    return line;
}

/**
 * A journal written under one A-stream policy must never satisfy a
 * resume under another, even under the same campaign name and seed:
 * trial dynamics differ per policy, so adopting a foreign record
 * would report results the configuration never produced.
 */
TEST(FaultCampaign, ResumeRejectsForeignPolicyJournal)
{
    FaultCampaignConfig cfg = smallConfig();
    cfg.name = "resume_policy";
    cfg.workloads = {"m88ksim"};
    cfg.trialsPerWorkload = 2;
    cfg.journalPath = "test_fault_campaign.policy_foreign.jsonl";
    cfg.params.aPolicy.kind = AStreamPolicyKind::Runahead;
    const FaultCampaignResult fresh = runFaultCampaign(cfg);
    const std::string expected = campaignJson(cfg, fresh);

    // The same campaign under `ir`, its trial 0 tampered to `crashed`:
    // if resume adopted it, the bogus outcome would land in the report.
    FaultCampaignConfig ir = cfg;
    ir.params.aPolicy.kind = AStreamPolicyKind::IRRemoval;
    ir.journalPath = "test_fault_campaign.policy_ir.jsonl";
    runFaultCampaign(ir);
    const std::vector<std::string> irLines = journalLines(ir.journalPath);
    ASSERT_EQ(irLines.size(), fresh.trials.size());
    {
        std::ofstream out(cfg.journalPath, std::ios::trunc);
        out << withOutcome(irLines[0], "crashed") << '\n'
            << irLines[1] << '\n';
    }

    FaultCampaignConfig again = cfg;
    again.resume = true;
    setLogQuiet(true); // the skipped-lines warning is expected
    const FaultCampaignResult resumed = runFaultCampaign(again);
    setLogQuiet(false);
    EXPECT_EQ(campaignJson(again, resumed), expected);
    EXPECT_EQ(resumed.total.outcomes(TrialOutcome::Crashed), 0u);
    std::remove(cfg.journalPath.c_str());
    std::remove(ir.journalPath.c_str());
}

/**
 * A line without a key (a journal from before lines carried one) is
 * never adopted: resume re-runs its trial, fails closed, and still
 * renders the report byte for byte.
 */
TEST(FaultCampaign, ResumeReRunsKeylessLines)
{
    FaultCampaignConfig cfg = smallConfig();
    cfg.name = "resume_keyless";
    cfg.workloads = {"m88ksim"};
    cfg.trialsPerWorkload = 2;
    cfg.journalPath = "test_fault_campaign.keyless.jsonl";

    const FaultCampaignResult fresh = runFaultCampaign(cfg);
    const std::string expected = campaignJson(cfg, fresh);
    ASSERT_NE(fresh.trials[0].outcome, TrialOutcome::TimedOut);
    const std::vector<std::string> lines = journalLines(cfg.journalPath);
    ASSERT_EQ(lines.size(), fresh.trials.size());

    // Strip trial 0's key and tamper it into a terminal timeout: if
    // the keyless line were adopted, the timeout would be restored.
    std::string keyless = withOutcome(lines[0], "timed_out");
    const size_t at = keyless.find(",\"key\":\"");
    ASSERT_NE(at, std::string::npos);
    keyless.erase(at, std::string(",\"key\":\"\"").size() + 32);
    ASSERT_EQ(keyless.find("\"key\""), std::string::npos);
    {
        std::ofstream out(cfg.journalPath, std::ios::trunc);
        out << keyless << '\n' << lines[1] << '\n';
    }

    FaultCampaignConfig again = cfg;
    again.resume = true;
    setLogQuiet(true);
    const FaultCampaignResult resumed = runFaultCampaign(again);
    setLogQuiet(false);
    EXPECT_EQ(campaignJson(again, resumed), expected);
    ASSERT_EQ(resumed.trials.size(), 2u);
    EXPECT_NE(resumed.trials[0].outcome, TrialOutcome::TimedOut);
    // Trial 0 re-ran here; trial 1 was adopted (no metrics).
    EXPECT_GT(resumed.trials[0].metrics.retired, 0u);
    EXPECT_EQ(resumed.trials[1].metrics.retired, 0u);
    std::remove(cfg.journalPath.c_str());
}

} // namespace
} // namespace slip
