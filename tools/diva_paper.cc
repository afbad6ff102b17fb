/**
 * @file
 * diva_paper: the paper's evaluation in one run. Prints every figure
 * and table the simulator reproduces in paper order -- Figs. 4, 5, 7,
 * the PPU traffic claim, Table I, Figs. 13-16, Section VI-C, Table III
 * and Fig. 17 -- then ablations beyond the paper, then a fidelity
 * ledger: per headline claim, the paper's value, the model's, whether
 * the model is within +-25% of it, and the cause of a miss when one
 * has been measured.
 *
 * Stdout is the only output, so test_sweep_golden's PaperGolden case
 * byte-compares it with tests/golden/paper/diva_paper.txt. After a
 * deliberate model change, regenerate that from the build directory:
 *
 *     ./diva_paper > ../tests/golden/paper/diva_paper.txt
 */

#include <algorithm>
#include <cmath>
#include <functional>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "arch/accelerator_config.h"
#include "common/cli.h"
#include "common/logging.h"
#include "common/table.h"
#include "energy/energy_model.h"
#include "gemm/bandwidth.h"
#include "gemm/shape_stats.h"
#include "gpu/gpu_model.h"
#include "models/zoo.h"
#include "sim/executor.h"
#include "sim/roofline.h"
#include "sweep/runner.h"
#include "sweep/spec.h"
#include "train/memory_model.h"
#include "train/planner.h"

using namespace diva;

namespace
{

/** A numeric claim passes when model / paper - 1 is within +-this. */
constexpr double kTolerance = 0.25;

constexpr TrainingAlgorithm kSgd = TrainingAlgorithm::kSgd;
constexpr TrainingAlgorithm kDpSgd = TrainingAlgorithm::kDpSgd;
constexpr TrainingAlgorithm kDpSgdR = TrainingAlgorithm::kDpSgdR;

const std::string kUnexplained = "Cause not established.";

const auto times = [](double v) { return TextTable::fmtX(v); };
const auto percent = [](double v) { return TextTable::fmtPct(v); };
const auto whole = [](double v) { return TextTable::fmt(v, 0); };

/**
 * The headline claims of the paper next to the model's values, one
 * table row each, numbered in the order the sections add them.
 */
struct Ledger
{
    /** Where the claims added next come from ("Fig. 13"). */
    std::string source;
    TextTable table{
        {"#", "source", "claim", "paper", "model", "error", "within"}};
    std::string notes;
    std::size_t passed = 0;

    /** A numeric claim; the status uses the unrounded values. */
    void number(const std::string &what, double paper, double model,
                std::string (*fmt)(double), const std::string &note = "")
    {
        const double error = model / paper - 1.0;
        add(what, fmt(paper), fmt(model),
            (error >= 0.0 ? "+" : "") + percent(error),
            std::abs(error) <= kTolerance, note);
    }

    /** A claim that names models or classes: passes on an exact match. */
    void name(const std::string &what, const std::string &paper,
              const std::string &model, const std::string &note = "")
    {
        add(what, paper, model, "-", paper == model, note);
    }

    void add(const std::string &what, const std::string &paper,
             const std::string &model, const std::string &error,
             bool within, const std::string &note)
    {
        const std::string n = std::to_string(table.numRows() + 1);
        passed += within;
        table.addRow(
            {n, source, what, paper, model, error, within ? "yes" : "no"});
        if (!note.empty())
            notes += "  [" + n + "] " + note + "\n";
    }

    void print() const
    {
        const std::string band = "±" + TextTable::fmtPct(kTolerance, 0);
        std::cout << "=== Paper-fidelity ledger: model vs paper, tolerance "
                  << band << " ===\n";
        table.print(std::cout);
        std::cout << "\nnotes:\n" << notes << "\n" << passed << " of "
                  << table.numRows() << " claims within " << band << "\n";
    }
};

/** "=== title ===", the table, then a blank line. */
void
show(const std::string &title, const TextTable &table)
{
    std::cout << "=== " << title << " ===\n";
    table.print(std::cout);
    std::cout << "\n";
}

const std::vector<Network> &
models()
{
    static const std::vector<Network> zoo = allModels();
    return zoo;
}

/** Figure-5/13 protocol: the largest mini-batch vanilla DP-SGD fits
 *  in TPUv3's 16 GiB HBM, used for every algorithm. */
int
protocolBatch(const Network &net)
{
    return std::max(1, maxBatchSize(net, kDpSgd, 16_GiB));
}

/** One iteration at the protocol batch, simulated once. Keyed by the
 *  design point's name: pass only the unmodified named configs. */
const SimResult &
sim(const AcceleratorConfig &cfg, const Network &net,
    TrainingAlgorithm algo)
{
    static std::map<std::tuple<std::string, std::string, TrainingAlgorithm>,
                    SimResult>
        memo;
    const auto [it, fresh] =
        memo.try_emplace(std::make_tuple(cfg.name, net.name, algo));
    if (fresh)
        it->second =
            Executor(cfg).run(buildOpStream(net, algo, protocolBatch(net)));
    return it->second;
}

double
cycles(const AcceleratorConfig &cfg, const Network &net,
       TrainingAlgorithm algo)
{
    return double(sim(cfg, net, algo).totalCycles());
}

/** DiVa's speedup over WS on one model, DP-SGD(R). */
double
divaSpeedup(const Network &net)
{
    return cycles(tpuV3Ws(), net, kDpSgdR) /
           cycles(divaDefault(true), net, kDpSgdR);
}

/** Run a spec whose report is indexed positionally: fatal if
 *  expansion dropped a scenario (later indices would shift) or any
 *  scenario failed. */
SweepReport
sweep(SweepRunner &runner, const SweepSpec &spec)
{
    const SweepSpec::Expansion e = spec.expand();
    if (e.invalidSkipped || e.duplicatesRemoved)
        DIVA_FATAL("sweep axes dropped scenarios (", e.invalidSkipped,
                   " invalid, ", e.duplicatesRemoved, " duplicates)");
    SweepReport report = runner.run(e.scenarios);
    for (const ScenarioResult &r : report.results)
        if (!r.ok())
            DIVA_FATAL("sweep scenario failed: ", r.scenario.label(), ": ",
                       r.error);
    return report;
}

double
geomean(const std::vector<double> &values)
{
    double log_sum = 0.0;
    for (double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / double(values.size()));
}

/** Index of the largest value. */
std::size_t
argmax(const std::vector<double> &values)
{
    return std::max_element(values.begin(), values.end()) - values.begin();
}

std::string
joined(const std::vector<std::string> &names)
{
    std::string out;
    for (const std::string &n : names)
        out += (out.empty() ? "" : ", ") + n;
    return out;
}

void
figure4(Ledger &ledger)
{
    TextTable table({"model", "algorithm", "weights", "activations",
                     "per-batch G(W)", "per-example G(W)", "else",
                     "total (xSGD)"});
    std::vector<double> dp_ratio, dpr_saving, pe_share;
    for (const Network &net : models()) {
        const int batch = protocolBatch(net);
        const double sgd = double(trainingMemory(net, kSgd, batch).total());
        auto norm = [&](Bytes b) { return TextTable::fmt(double(b) / sgd, 3); };
        for (auto algo : {kSgd, kDpSgd, kDpSgdR}) {
            const MemoryBreakdown mb = trainingMemory(net, algo, batch);
            table.addRow({net.name, algorithmName(algo), norm(mb.weights),
                          norm(mb.activations), norm(mb.perBatchGrad),
                          norm(mb.perExampleGrad), norm(mb.other),
                          times(double(mb.total()) / sgd)});
        }
        table.addSeparator();
        const MemoryBreakdown dp = trainingMemory(net, kDpSgd, batch);
        dp_ratio.push_back(double(dp.total()) / sgd);
        pe_share.push_back(double(dp.perExampleGrad) / double(dp.total()));
        dpr_saving.push_back(
            double(dp.total()) /
            double(trainingMemory(net, kDpSgdR, batch).total()));
    }
    show("Figure 4: memory usage breakdown (normalized to SGD, same "
         "mini-batch)",
         table);
    ledger.source = "Fig. 4";
    const std::size_t top = argmax(dp_ratio);
    ledger.number("max DP-SGD memory vs SGD", 11.0, dp_ratio[top], times,
                  "Max is " + models()[top].name + "; geomean over the "
                      "nine models " + times(geomean(dp_ratio)) + ". " +
                      kUnexplained);
    ledger.number("geomean per-example G(W) share of DP-SGD", 0.78,
                  geomean(pe_share), percent);
    ledger.number("geomean DP-SGD(R) memory saving", 3.8,
                  geomean(dpr_saving), times);

    TextTable batches(
        {"model", "SGD", "DP-SGD", "DP-SGD(R)", "SGD / DP-SGD"});
    for (const Network &net : models()) {
        const int sgd = maxBatchSize(net, kSgd, 16_GiB);
        const int dp = maxBatchSize(net, kDpSgd, 16_GiB);
        batches.addRow({net.name, std::to_string(sgd), std::to_string(dp),
                        std::to_string(maxBatchSize(net, kDpSgdR, 16_GiB)),
                        TextTable::fmtX(double(sgd) / double(dp), 1)});
    }
    show("Section III-A: max mini-batch under 16 GiB", batches);
}

void
figure5(Ledger &ledger)
{
    const AcceleratorConfig ws = tpuV3Ws();
    TextTable table({"model", "algorithm", "Fwd", "Bwd(act 1st)",
                     "Bwd(per-ex)", "Bwd(norm)", "Bwd(act 2nd)",
                     "Bwd(per-batch)", "Bwd(clip)", "Bwd(red/noise)",
                     "total (xSGD)"});
    std::vector<double> dp_slow, dpr_slow, bwd_frac, r_gain;
    for (const Network &net : models()) {
        const double sgd = cycles(ws, net, kSgd);
        for (auto algo : {kSgd, kDpSgd, kDpSgdR}) {
            const SimResult &r = sim(ws, net, algo);
            std::vector<std::string> cells = {net.name, algorithmName(algo)};
            for (Stage s : allStages())
                cells.push_back(
                    TextTable::fmt(double(r.stageCyclesFor(s)) / sgd, 2));
            cells.push_back(times(double(r.totalCycles()) / sgd));
            table.addRow(cells);
        }
        table.addSeparator();
        const double dp = cycles(ws, net, kDpSgd);
        const SimResult &dpr = sim(ws, net, kDpSgdR);
        dp_slow.push_back(dp / sgd);
        dpr_slow.push_back(double(dpr.totalCycles()) / sgd);
        r_gain.push_back(dp / double(dpr.totalCycles()));
        bwd_frac.push_back(1.0 - double(dpr.stageCyclesFor(Stage::kForward)) /
                                     double(dpr.totalCycles()));
    }
    show("Figure 5: training time breakdown on WS systolic (normalized to "
         "SGD)",
         table);
    ledger.source = "Fig. 5";
    ledger.number("geomean DP-SGD slowdown vs SGD", 9.1, geomean(dp_slow),
                  times);
    ledger.number("geomean DP-SGD(R) slowdown vs SGD", 5.8,
                  geomean(dpr_slow), times);
    ledger.number("geomean backprop share of DP-SGD(R) time", 0.99,
                  geomean(bwd_frac), percent);
    ledger.number("geomean DP-SGD(R) speedup over DP-SGD", 1.0 / 0.69,
                  geomean(r_gain), times,
                  "Reads the paper's \"~31% faster\" as 31% less time, "
                  "1/0.69 = 1.45x; read as 1.31x the model is +30.5%. The "
                  "paper's own averages give 9.1 / 5.8 = 1.57x.");
}

void
figure7(Ledger &ledger)
{
    const AcceleratorConfig ws = tpuV3Ws();
    const Stage classes[] = {Stage::kForward, Stage::kActGrad1,
                             Stage::kPerBatchGrad, Stage::kPerExampleGrad};
    TextTable table({"model", "family", "Fwdprop", "Bwd(act grad)",
                     "Bwd(per-batch grad)", "Bwd(per-example grad)"});
    std::vector<double> pe_util, other_util;
    std::vector<std::string> lowest; // the least-utilized classes seen
    for (const Network &net : models()) {
        // DP-SGD(R) exercises all four GEMM classes in one iteration.
        const SimResult &r = sim(ws, net, kDpSgdR);
        std::vector<std::string> cells = {net.name, familyName(net.family)};
        std::vector<double> util;
        for (Stage s : classes) {
            util.push_back(r.stageUtilization(s, ws));
            cells.push_back(percent(util.back()));
        }
        table.addRow(cells);
        pe_util.push_back(util[3]);
        other_util.push_back((util[0] + util[1] + util[2]) / 3.0);
        const std::string least = stageName(
            classes[std::min_element(util.begin(), util.end()) -
                    util.begin()]);
        if (std::find(lowest.begin(), lowest.end(), least) == lowest.end())
            lowest.push_back(least);
    }
    show("Figure 7: WS systolic FLOPS utilization by GEMM class", table);
    ledger.source = "Fig. 7";
    ledger.name("argmin WS utilization class, every model",
                stageName(Stage::kPerExampleGrad), joined(lowest),
                "Geomean per-example " + percent(geomean(pe_util)) +
                    " vs the other classes " + percent(geomean(other_util)) +
                    ".");

    // Section III-C's companion diagnosis: how much of the iteration
    // sits under the memory roofline, per engine.
    TextTable roof({"model", "WS", "DiVa"});
    for (const Network &net : models()) {
        const OpStream stream =
            buildOpStream(net, kDpSgdR, protocolBatch(net));
        const auto share = [&](const AcceleratorConfig &cfg) {
            return percent(analyzeRoofline(cfg, stream).memoryBoundCycleShare);
        };
        roof.addRow({net.name, share(ws), share(divaDefault(true))});
    }
    show("Roofline: memory-bound cycle share (DP-SGD(R))", roof);

    // The K-dimension distribution behind the utilization collapse:
    // DP-SGD's per-example GEMMs flood the stream with small K.
    TextTable kdist({"model", "algo", "K=1", "K<=8", "K<=32", "K<=128",
                     "K<=512", "K>512", "GEMMs"});
    for (const Network &net : models())
        for (auto algo : {kSgd, kDpSgd}) {
            const KDimHistogram k =
                collectShapeStats(buildOpStream(net, algo, protocolBatch(net)))
                    .all;
            std::vector<std::string> cells = {net.name, algorithmName(algo)};
            for (std::uint64_t count : k.counts)
                cells.push_back(percent(
                    double(count) /
                    double(std::max<std::uint64_t>(k.totalGemms, 1))));
            cells.push_back(std::to_string(k.totalGemms));
            kdist.addRow(cells);
        }
    show("GEMM K-dimension distribution (share of GEMM count)", kdist);
}

/** Sections I and IV-C: the PPU removes post-processing DRAM traffic. */
void
ppuTraffic(Ledger &ledger)
{
    TextTable table({"model", "WS (spill+fetch)", "DiVa w/o PPU",
                     "DiVa (PPU)", "reduction vs WS"});
    double sum = 0.0;
    for (const Network &net : models()) {
        const auto traffic = [&](const AcceleratorConfig &cfg) {
            return double(sim(cfg, net, kDpSgdR).postProcessingDram.total());
        };
        const double ws = traffic(tpuV3Ws());
        const double dv1 = traffic(divaDefault(true));
        table.addRow({net.name, TextTable::fmt(ws / 1e9, 3),
                      TextTable::fmt(traffic(divaDefault(false)) / 1e9, 3),
                      TextTable::fmt(dv1 / 1e9, 4), percent(1.0 - dv1 / ws)});
        sum += 1.0 - dv1 / ws;
    }
    show("PPU: off-chip traffic during gradient post-processing (GB)",
         table);
    ledger.source = "Sec. IV-C";
    ledger.number("mean post-processing DRAM cut by the PPU", 0.99,
                  sum / double(models().size()), percent);
}

/** Section IV-D: SRAM bandwidth per dataflow at 128x128 PEs. */
void
tableI(Ledger &ledger)
{
    const SramBandwidth ws = sramBandwidthRequirement(tpuV3Ws());
    const SramBandwidth os = sramBandwidthRequirement(systolicOs(false));
    const SramBandwidth outer = sramBandwidthRequirement(divaDefault(false));
    // OS and outer-product must agree (Section IV-D).
    if (os.total() != outer.total())
        std::cout << "WARNING: OS and outer-product disagree!\n";
    TextTable table(
        {"data type", "Systolic WS", "Systolic OS & Outer-product"});
    table.addRow({"Input LHS", std::to_string(ws.inputLhs),
                  std::to_string(outer.inputLhs)});
    table.addRow({"Input RHS", std::to_string(ws.inputRhs),
                  std::to_string(outer.inputRhs)});
    table.addRow({"Output", std::to_string(ws.output),
                  std::to_string(outer.output)});
    table.addSeparator();
    table.addRow({"Total", std::to_string(ws.total()),
                  std::to_string(outer.total())});
    show("Table I: SRAM buffer bandwidth requirements (bytes/clock)", table);
    // The paper's formulas at PE_H = PE_W = 128.
    ledger.source = "Table I";
    ledger.number("WS SRAM bytes/clock, (2H + 20W)", 2 * 128 + 20 * 128,
                  double(ws.total()), whole);
    ledger.number("OS/outer SRAM bytes/clock, (2H + 34W)",
                  2 * 128 + 34 * 128, double(outer.total()), whole);
}

void
figure13(Ledger &ledger)
{
    TextTable table({"model", "WS", "OS+PPU", "DiVa w/o PPU", "DiVa",
                     "SGD:WS (xDP-WS)", "SGD:DiVa (xSGD-WS)",
                     "DiVa vs SGD:WS"});
    std::vector<double> diva, diva_no_ppu, os_ppu, sgd_diva, of_sgd;
    for (const Network &net : models()) {
        const double ws = cycles(tpuV3Ws(), net, kDpSgdR);
        const double dv1 = cycles(divaDefault(true), net, kDpSgdR);
        const double sgd_ws = cycles(tpuV3Ws(), net, kSgd);
        os_ppu.push_back(ws / cycles(systolicOs(true), net, kDpSgdR));
        diva_no_ppu.push_back(ws / cycles(divaDefault(false), net, kDpSgdR));
        diva.push_back(ws / dv1);
        sgd_diva.push_back(sgd_ws / cycles(divaDefault(true), net, kSgd));
        of_sgd.push_back(sgd_ws / dv1);
        table.addRow({net.name, "1.00x", times(os_ppu.back()),
                      times(diva_no_ppu.back()), times(diva.back()),
                      times(ws / sgd_ws), times(sgd_diva.back()),
                      percent(of_sgd.back())});
    }
    show("Figure 13: end-to-end speedup vs WS systolic (DP-SGD(R) unless "
         "noted)",
         table);
    ledger.source = "Fig. 13";
    ledger.number("geomean DiVa speedup vs WS", 3.6, geomean(diva), times,
                  "Geomean OS+PPU " + times(geomean(os_ppu)) +
                      ", DiVa w/o PPU " + times(geomean(diva_no_ppu)) + ".");
    const std::size_t top = argmax(diva);
    ledger.number("max DiVa speedup vs WS", 7.3, diva[top], times);
    ledger.name("argmax DiVa speedup vs WS", "ResNet-152", models()[top].name,
                "ResNet-152 reaches " + times(divaSpeedup(resnet152())) +
                    ". " + kUnexplained);
    ledger.number("geomean DiVa share of WS-SGD speed", 0.75,
                  geomean(of_sgd), percent);
    ledger.number("geomean DiVa-SGD speedup vs WS-SGD", 1.6,
                  geomean(sgd_diva), times);
}

void
figure14(Ledger &ledger)
{
    std::cout << "=== Figure 14: DP-SGD(R) latency breakdown (normalized "
                 "to WS total) ===\n";
    std::vector<double> pe_cut;
    for (const Network &net : breakdownModels()) {
        std::cout << "\n--- " << net.name << " (mini-batch "
                  << protocolBatch(net) << ") ---\n";
        TextTable table({"stage", "WS", "OS+PPU", "DiVa w/o PPU", "DiVa"});
        std::vector<const SimResult *> results;
        for (const AcceleratorConfig &cfg :
             {tpuV3Ws(), systolicOs(true), divaDefault(false),
              divaDefault(true)})
            results.push_back(&sim(cfg, net, kDpSgdR));
        const double ws_total = double(results[0]->totalCycles());
        for (Stage s : allStages()) {
            bool any = false;
            std::vector<std::string> cells = {stageName(s)};
            for (const SimResult *r : results) {
                any = any || r->stageCyclesFor(s) > 0;
                cells.push_back(TextTable::fmt(
                    double(r->stageCyclesFor(s)) / ws_total, 3));
            }
            if (any)
                table.addRow(cells);
        }
        std::vector<std::string> totals = {"TOTAL"};
        for (const SimResult *r : results)
            totals.push_back(
                TextTable::fmt(double(r->totalCycles()) / ws_total, 3));
        table.addSeparator();
        table.addRow(totals);
        table.print(std::cout);
        pe_cut.push_back(
            double(results[0]->stageCyclesFor(Stage::kPerExampleGrad)) /
            double(results[3]->stageCyclesFor(Stage::kPerExampleGrad)));
    }
    std::cout << "\n";
    ledger.source = "Fig. 14";
    ledger.number("geomean per-example G(W) latency cut", 7.0,
                  geomean(pe_cut), times);
    const std::size_t top = argmax(pe_cut);
    ledger.number("max per-example G(W) latency cut", 14.6, pe_cut[top],
                  times,
                  "Max is " + breakdownModels()[top].name + ". " +
                      kUnexplained);
}

void
figure15(Ledger &ledger)
{
    TextTable table(
        {"model", "stage", "WS util", "OS (xWS)", "DiVa (xWS)"});
    std::vector<double> cnn_pe, nlp_pe;
    std::vector<std::string> cnns;
    const AcceleratorConfig ws = tpuV3Ws(), os = systolicOs(true),
                            dv = divaDefault(true);
    for (const Network &net : models()) {
        double gain = 0.0; // of the last class, per-example G(W)
        for (Stage s : {Stage::kForward, Stage::kActGrad1,
                        Stage::kPerBatchGrad, Stage::kPerExampleGrad}) {
            const double u_ws = sim(ws, net, kDpSgdR).stageUtilization(s, ws);
            gain = sim(dv, net, kDpSgdR).stageUtilization(s, dv) / u_ws;
            table.addRow(
                {net.name, stageName(s), percent(u_ws),
                 times(sim(os, net, kDpSgdR).stageUtilization(s, os) / u_ws),
                 times(gain)});
        }
        table.addSeparator();
        if (net.family == ModelFamily::kCnn) {
            cnn_pe.push_back(gain);
            cnns.push_back(net.name);
        } else {
            nlp_pe.push_back(gain);
        }
    }
    show("Figure 15: FLOPS utilization improvement vs WS", table);
    ledger.source = "Fig. 15";
    ledger.number("geomean CNN per-example G(W) util gain", 5.5,
                  geomean(cnn_pe), times);
    const std::size_t top = argmax(cnn_pe);
    ledger.number("max CNN per-example G(W) util gain", 28.9, cnn_pe[top],
                  times, kUnexplained);
    ledger.name("argmax CNN per-example G(W) util gain", "SqueezeNet",
                cnns[top], kUnexplained);
    ledger.number("geomean Transformer/RNN per-example G(W) util gain", 2.2,
                  geomean(nlp_pe), times, kUnexplained);
}

void
figure16(Ledger &ledger)
{
    TextTable table({"model", "WS", "OS w/o PPU", "OS+PPU", "DiVa w/o PPU",
                     "DiVa", "DiVa saving"});
    std::vector<double> savings;
    double dram_lo = 1.0, dram_hi = 0.0; // DRAM share of WS energy
    for (const Network &net : models()) {
        std::vector<EnergyBreakdown> joules;
        for (const AcceleratorConfig &cfg :
             {tpuV3Ws(), systolicOs(false), systolicOs(true),
              divaDefault(false), divaDefault(true)})
            joules.push_back(EnergyModel::energy(sim(cfg, net, kDpSgdR), cfg));
        const double ws = joules[0].total();
        std::vector<std::string> cells = {net.name};
        for (const EnergyBreakdown &j : joules)
            cells.push_back(TextTable::fmt(j.total() / ws, 3));
        savings.push_back(ws / joules.back().total());
        cells.push_back(times(savings.back()));
        table.addRow(cells);
        dram_lo = std::min(dram_lo, joules[0].dramJ / ws);
        dram_hi = std::max(dram_hi, joules[0].dramJ / ws);
    }
    show("Figure 16: energy consumption (normalized to WS)", table);
    ledger.source = "Fig. 16";
    ledger.number(
        "geomean DiVa energy saving vs WS", 2.6, geomean(savings), times,
        "Mostly the DRAM term: at kDramJoulesPerByte = " +
            whole(EnergyModel::kDramJoulesPerByte * 1e12) +
            " pJ/B, a DDR-class figure for a chip with HBM, DRAM is " +
            percent(dram_lo) + "-" + percent(dram_hi) +
            " of WS energy, most of it the per-example spill the PPU "
            "removes.");
    const Network &top = models()[argmax(savings)];
    ledger.number("max DiVa energy saving vs WS", 4.6,
                  savings[argmax(savings)], times,
                  "Max is " + top.name + "; it follows " + top.name +
                      "'s Fig. 13 speedup of " + times(divaSpeedup(top)) +
                      ", which overshoots too.");
}

/** Section VI-C: DiVa's speedup shrinks as inputs grow. */
void
sensitivity(SweepRunner &runner, Ledger &ledger)
{
    ledger.source = "Sec. VI-C";
    const std::vector<int> scales = {32, 64, 128, 256};
    // One table per input kind; `growth` names the three scaled points
    // (input size over the baseline) whose geomeans the paper reports.
    const auto section = [&](const std::string &title,
                             const std::vector<std::string> &names,
                             const std::vector<std::string> &header,
                             const std::vector<std::string> &growth,
                             const std::vector<double> &paper) {
        SweepSpec spec;
        spec.configs = {tpuV3Ws(), divaDefault(true)};
        spec.models = names;
        spec.modelScales = scales;
        const std::vector<ScenarioResult> r = sweep(runner, spec).results;
        // Axis-major: config, then model, then scale.
        const std::size_t per_config = names.size() * scales.size();
        TextTable table(header);
        std::vector<std::vector<double>> cols(scales.size());
        for (std::size_t m = 0; m < names.size(); ++m) {
            std::vector<std::string> cells = {names[m]};
            for (std::size_t s = 0; s < scales.size(); ++s) {
                const std::size_t i = m * scales.size() + s;
                cols[s].push_back(double(r[i].cycles) /
                                  double(r[per_config + i].cycles));
                cells.push_back(times(cols[s].back()));
            }
            table.addRow(cells);
        }
        show(title, table);
        for (std::size_t s = 1; s < scales.size(); ++s)
            ledger.number("geomean DiVa speedup vs WS, " + growth[s - 1],
                          paper[s - 1], geomean(cols[s]), times);
    };
    section("Section VI-C: DiVa speedup vs WS, scaled image sizes",
            {"VGG-16", "ResNet-50", "ResNet-152", "SqueezeNet", "MobileNet"},
            {"model", "32x32 (x1)", "64x64 (x4)", "128x128 (x16)",
             "256x256 (x64)"},
            {"image x4", "image x16", "image x64"}, {3.6, 2.1, 1.7});
    section("Section VI-C: DiVa speedup vs WS, scaled sequence lengths",
            {"BERT-base", "BERT-large", "LSTM-small", "LSTM-large"},
            {"model", "L=32 (x1)", "L=64 (x2)", "L=128 (x4)", "L=256 (x8)"},
            {"sequence x2", "sequence x4", "sequence x8"}, {2.0, 1.6, 1.5});
}

void
tableIII(Ledger &ledger)
{
    TextTable table({"engine", "peak TFLOPS", "eff TFLOPS", "power (W)",
                     "area (mm^2)", "eff TFLOPS/W", "eff TFLOPS/mm^2"});
    const AcceleratorConfig ws = tpuV3Ws(), dv = divaDefault(true);
    std::map<std::string, double> eff; // geomean over the nine workloads
    for (const AcceleratorConfig &cfg : {ws, systolicOs(true), dv}) {
        std::vector<double> per_model;
        for (const Network &net : models())
            per_model.push_back(
                sim(cfg, net, kDpSgdR).overallUtilization(cfg) *
                cfg.peakTflops());
        const double e = eff[cfg.name] = geomean(per_model);
        const double power = EnergyModel::enginePowerW(cfg);
        const double area = EnergyModel::engineAreaMm2(cfg);
        table.addRow({cfg.name, TextTable::fmt(cfg.peakTflops(), 1),
                      TextTable::fmt(e, 2), TextTable::fmt(power, 1),
                      TextTable::fmt(area, 1), TextTable::fmt(e / power, 3),
                      TextTable::fmt(e / area, 3)});
    }
    show("Table III: power, area and effective TFLOPS (DP-SGD(R) "
         "workloads)",
         table);
    const double gain = eff[dv.name] / eff[ws.name];
    const double power_dv = EnergyModel::enginePowerW(dv);
    const double power_ws = EnergyModel::enginePowerW(ws);
    const double area_dv = EnergyModel::engineAreaMm2(dv);
    const double area_ws = EnergyModel::engineAreaMm2(ws);
    const std::string lead =
        "Lead: both paper ratios imply a 5.5x throughput gain over the "
        "engine without its PPU (3.5 x 21.2/13.4 W, 4.6 x 82/68 mm^2); the "
        "model's is " + times(gain) + " over the PPU-inclusive engine. " +
        kUnexplained;
    ledger.source = "Table III";
    ledger.number("geomean eff TFLOPS/W, DiVa vs WS", 3.5,
                  gain * power_ws / power_dv, times, lead);
    ledger.number("geomean eff TFLOPS/mm^2, DiVa vs WS", 4.6,
                  gain * area_ws / area_dv, times, lead);
    // The engine area delta is synthesized at 65 nm while the 650 mm^2
    // chip envelope is 12 nm; scale it by the node shrink before
    // comparing, as the paper does.
    ledger.number("DiVa chip-wide area overhead", 0.003,
                  (area_dv - area_ws) * (12.0 * 12.0) / (65.0 * 65.0) /
                      EnergyModel::kChipAreaMm2,
                  [](double v) { return TextTable::fmtPct(v, 2); },
                  kUnexplained);
    ledger.number("DiVa chip-wide power overhead", 0.023,
                  (power_dv - power_ws) / EnergyModel::kChipTdpW, percent);
}

void
figure17(SweepRunner &runner, Ledger &ledger)
{
    SweepSpec spec;
    spec.models = knownModels();
    spec.backends = {SweepBackend::kGpu};
    spec.gpus = {GpuConfig::v100Fp32(), GpuConfig::v100Fp16(),
                 GpuConfig::a100Fp32(), GpuConfig::a100Fp16()};
    const SweepReport report = sweep(runner, spec);
    TextTable table({"model", "vs V100(FP32)", "vs V100(FP16 TC)",
                     "vs A100(FP32)", "vs A100(FP16 TC)"});
    // Per tensor-core GPU (V100, A100): speedups, models below 1x.
    std::vector<double> vs_tc[2];
    std::vector<std::string> gpu_wins[2];
    const AcceleratorConfig dv = divaDefault(true);
    for (std::size_t m = 0; m < models().size(); ++m) {
        // DiVa's time on the same backprop bottleneck stages.
        const SimResult &r = sim(dv, models()[m], kDpSgdR);
        Cycles busy = 0;
        for (Stage s : {Stage::kActGrad1, Stage::kPerExampleGrad,
                        Stage::kGradNorm, Stage::kActGrad2,
                        Stage::kPerBatchGrad, Stage::kReduceNoise})
            busy += r.stageCyclesFor(s);
        std::vector<std::string> cells = {models()[m].name};
        for (std::size_t g = 0; g < spec.gpus.size(); ++g) {
            const double s = report.results[m * spec.gpus.size() + g].seconds /
                             dv.cyclesToSeconds(busy);
            cells.push_back(times(s));
            if (g % 2 == 1) {
                vs_tc[g / 2].push_back(s);
                if (s < 1.0)
                    gpu_wins[g / 2].push_back(models()[m].name);
            }
        }
        table.addRow(cells);
    }
    show("Figure 17: DiVa speedup vs GPUs on DP-SGD(R) backprop bottleneck "
         "stages",
         table);
    const std::string peak =
        "DiVa's peak is " + percent(dv.peakTflops() / 125.0) +
        " of V100 FP16 and " + percent(dv.peakTflops() / 312.0) +
        " of A100 FP16 (paper 23.6% / 9.5%).";
    ledger.source = "Fig. 17";
    ledger.number("geomean DiVa speedup vs V100(FP16 TC)", 1.2,
                  geomean(vs_tc[0]), times, kUnexplained + " " + peak);
    ledger.number("geomean DiVa speedup vs A100(FP16 TC)", 1.0,
                  geomean(vs_tc[1]), times, peak);
    ledger.name("models below 1x vs V100(FP16 TC)", "MobileNet",
                joined(gpu_wins[0]));
    ledger.name("models below 1x vs A100(FP16 TC)", "MobileNet",
                joined(gpu_wins[1]), kUnexplained);
}

const std::vector<std::string> kAblationNets = {"ResNet-50", "BERT-base"};

SweepSpec
ablationSpec(std::vector<AcceleratorConfig> configs)
{
    SweepSpec spec;
    spec.configs = std::move(configs);
    spec.models = kAblationNets;
    return spec;
}

/** DiVa with one parameter swept: `set` applies a value to the default
 *  config and returns its row label; a row holds each model's cycles
 *  and, with `ref`, their ratio to row `ref`'s. */
void
parameterTable(SweepRunner &runner, const std::string &title,
               const std::vector<std::string> &header,
               const std::vector<int> &values,
               const std::function<std::string(AcceleratorConfig &, int)> &set,
               std::optional<std::size_t> ref = std::nullopt)
{
    std::vector<std::string> labels;
    std::vector<AcceleratorConfig> configs;
    for (int v : values) {
        configs.push_back(divaDefault(true));
        labels.push_back(set(configs.back(), v));
    }
    const SweepReport report = sweep(runner, ablationSpec(configs));
    const auto at = [&](std::size_t cfg, std::size_t n) {
        return report.results[cfg * kAblationNets.size() + n].cycles;
    };
    TextTable table(header);
    for (std::size_t i = 0; i < values.size(); ++i) {
        std::vector<std::string> cells = {labels[i]};
        for (std::size_t n = 0; n < kAblationNets.size(); ++n) {
            cells.push_back(std::to_string(at(i, n)));
            if (ref)
                cells.push_back(TextTable::fmt(
                    double(at(i, n)) / double(at(*ref, n)), 3));
        }
        table.addRow(cells);
    }
    show(title, table);
}

/** Beyond the paper: DiVa's design parameters (Section IV-D). Points
 *  that recur across tables (default DiVa, the WS baseline) come from
 *  the runner's result cache. */
void
ablations(SweepRunner &runner)
{
    parameterTable(
        runner, "Ablation: PPU drain rate R (output rows/cycle)",
        {"R", "ResNet-50 cycles", "xR=8", "BERT-base cycles", "xR=8"},
        {1, 2, 4, 8, 16, 32},
        [](AcceleratorConfig &cfg, int r) {
            cfg.drainRowsPerCycle = r;
            return std::to_string(r);
        },
        3); // R = 8, the default
    parameterTable(runner, "Ablation: on-chip SRAM capacity",
                   {"SRAM (MiB)", "ResNet-50 cycles", "BERT-base cycles"},
                   {2, 4, 8, 16, 32, 64}, [](AcceleratorConfig &cfg, int mib) {
                       cfg.sramBytes = Bytes(mib) * 1_MiB;
                       return std::to_string(mib);
                   });
    parameterTable(runner, "Ablation: PE-array aspect ratio (16384 MACs)",
                   {"array", "ResNet-50 cycles", "BERT-base cycles"},
                   {32, 64, 128, 256, 512},
                   [](AcceleratorConfig &cfg, int rows) {
                       cfg.peRows = rows;
                       cfg.peCols = 16384 / rows;
                       cfg.drainRowsPerCycle =
                           std::min(cfg.drainRowsPerCycle, rows);
                       return std::to_string(rows) + "x" +
                              std::to_string(cfg.peCols);
                   });

    AcceleratorConfig ws_dbuf = tpuV3Ws();
    ws_dbuf.wsDoubleBufferWeights = true;
    ws_dbuf.name = "Systolic-WS+dbuf";
    const SweepReport w_report =
        sweep(runner, ablationSpec({tpuV3Ws(), ws_dbuf, divaDefault(true)}));
    TextTable w_table({"model", "WS cycles", "WS+dbuf cycles", "improvement",
                       "DiVa speedup vs WS+dbuf"});
    const std::size_t nets = kAblationNets.size();
    for (std::size_t n = 0; n < nets; ++n) {
        const Cycles c0 = w_report.results[n].cycles;
        const Cycles c1 = w_report.results[nets + n].cycles;
        const Cycles cd = w_report.results[2 * nets + n].cycles;
        w_table.addRow({kAblationNets[n], std::to_string(c0),
                        std::to_string(c1),
                        TextTable::fmtX(double(c0) / double(c1), 3),
                        times(double(c1) / double(cd))});
    }
    show("Ablation: WS double-buffered weight latches", w_table);

    TextTable m_table({"model", "micro-batch", "WS cycles", "DiVa cycles",
                       "DiVa speedup"});
    for (const std::string &net : kAblationNets) {
        const int dp_batch = protocolBatch(buildModel(net));
        SweepSpec spec = ablationSpec({tpuV3Ws(), divaDefault(true)});
        spec.models = {net};
        spec.batches = {4 * dp_batch};
        spec.microbatches = {dp_batch, dp_batch / 4, dp_batch / 16};
        const SweepReport report = sweep(runner, spec);
        const std::size_t num_mb = spec.microbatches.size();
        for (std::size_t i = 0; i < num_mb; ++i) {
            const Cycles cw = report.results[i].cycles;
            const Cycles cd = report.results[num_mb + i].cycles;
            m_table.addRow({net, std::to_string(spec.microbatches[i]),
                            std::to_string(cw), std::to_string(cd),
                            times(double(cw) / double(cd))});
        }
    }
    show("Ablation: micro-batching (logical batch = 4x DP max)", m_table);

    const std::vector<double> bws = {112.5, 225.0, 450.0, 900.0, 1800.0};
    SweepSpec b_spec = ablationSpec({});
    b_spec.models = {"ResNet-50"};
    for (double bw : bws)
        for (AcceleratorConfig cfg : {tpuV3Ws(), divaDefault(true)}) {
            cfg.dramBandwidthGBs = bw;
            b_spec.configs.push_back(cfg);
        }
    const SweepReport b_report = sweep(runner, b_spec);
    TextTable b_table({"bandwidth", "WS ResNet-50", "DiVa ResNet-50",
                       "DiVa speedup"});
    for (std::size_t i = 0; i < bws.size(); ++i) {
        const Cycles cw = b_report.results[2 * i].cycles;
        const Cycles cd = b_report.results[2 * i + 1].cycles;
        b_table.addRow({TextTable::fmt(bws[i], 1), std::to_string(cw),
                        std::to_string(cd), times(double(cw) / double(cd))});
    }
    show("Ablation: DRAM bandwidth (GB/s)", b_table);

    const std::vector<int> chip_counts = {1, 2, 4, 8, 16, 32};
    SweepSpec p_spec = ablationSpec({tpuV3Ws(), divaDefault(true)});
    p_spec.models = {"ResNet-152"};
    p_spec.batches = {512};
    p_spec.backends = {SweepBackend::kMultiChip};
    for (int chips : chip_counts) {
        p_spec.pods.emplace_back();
        p_spec.pods.back().numChips = chips;
    }
    const SweepReport p_report = sweep(runner, p_spec);
    TextTable p_table({"chips", "per-chip batch", "WS total cycles",
                       "DiVa total cycles", "DiVa efficiency"});
    const std::size_t pods = chip_counts.size();
    // Efficiency baseline: the 1-chip pod of the same design point.
    const double dv_single = double(p_report.results[pods].cycles);
    for (std::size_t i = 0; i < pods; ++i) {
        const Cycles dv_c = p_report.results[pods + i].cycles;
        p_table.addRow({std::to_string(chip_counts[i]),
                        std::to_string(ceilDiv(512, chip_counts[i])),
                        std::to_string(p_report.results[i].cycles),
                        std::to_string(dv_c),
                        percent(dv_single /
                                (double(chip_counts[i]) * double(dv_c)))});
    }
    show("Ablation: data-parallel pod scaling (ResNet-152, global batch 512)",
         p_table);
}

} // namespace

int
main(int argc, char **argv)
{
    if (const auto rc = cli::parseArgs("diva_paper", argc, argv, {}))
        return *rc;
    Ledger ledger;
    SweepRunner runner;
    figure4(ledger);
    figure5(ledger);
    figure7(ledger);
    ppuTraffic(ledger);
    tableI(ledger);
    figure13(ledger);
    figure14(ledger);
    figure15(ledger);
    figure16(ledger);
    sensitivity(runner, ledger);
    tableIII(ledger);
    figure17(runner, ledger);
    ablations(runner);
    ledger.print();
    return 0;
}
