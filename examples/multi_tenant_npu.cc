/**
 * @file
 * Example: multi-tenant NPUs on a shared IOMMU through the Workload
 * API. A dense DNN (tenant 0) co-runs with a synthetic uniform-random
 * stream (tenant 1) on one System; both emit real DMA / translation
 * traffic into the same walker pool, so the dense tenant's slowdown
 * under interference falls directly out of the per-workload stats.
 *
 * Any factory spec list works: the default co-run is equivalent to
 *   --workloads="dense:model=CNN1,batch=1;synthetic:pattern=uniform"
 *
 * Usage:
 *   multi_tenant_npu [--workloads=<spec;spec;...>]
 *                    [--mmu=iommu|neummu] [--alone=1]
 *                    [--json=<path>]
 */

#include <cstdio>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "common/arg_parser.hh"
#include "system/scheduler.hh"
#include "system/system.hh"
#include "workloads/workload_factory.hh"

using namespace neummu;

namespace {

SystemConfig
machineFor(const std::string &mmu_arg, unsigned tenants)
{
    SystemConfig cfg;
    cfg.name = "mt";
    cfg.numNpus = tenants;
    cfg.mmuDesign = mmu_arg == "iommu" ? "iommu" : "neummu";
    return cfg;
}

/** Run @p list on a fresh machine; print per-tenant lines. */
SchedulerResult
runList(const std::string &list, const std::string &mmu_arg,
        System **out_system, std::unique_ptr<System> &keep)
{
    std::vector<std::unique_ptr<Workload>> workloads =
        makeWorkloadsFromListChecked(list);
    keep = std::make_unique<System>(
        machineFor(mmu_arg, unsigned(workloads.size())));
    *out_system = keep.get();

    Scheduler scheduler(*keep);
    for (auto &wl : workloads)
        scheduler.add(std::move(wl));
    return scheduler.run();
}

} // namespace

int
main(int argc, char **argv)
try {
    ArgParser args(argc, argv);
    const std::string mmu_arg = args.get("mmu", "neummu");
    if (mmu_arg != "neummu" && mmu_arg != "iommu")
        NEUMMU_FATAL("--mmu must be 'iommu' or 'neummu', got '" +
                     mmu_arg + "'");
    const std::string list = args.get(
        "workloads",
        "dense:model=CNN1,batch=1;"
        "synthetic:pattern=uniform,accesses=8192,bytes=4K,footprint=64M");

    std::printf("Multi-tenant NPU co-run on one shared %s\n"
                "workloads: %s\n\n",
                mmu_arg.c_str(), list.c_str());

    std::unique_ptr<System> system_keep;
    System *system = nullptr;
    const SchedulerResult corun =
        runList(list, mmu_arg, &system, system_keep);
    NEUMMU_ASSERT(corun.allDone, "a tenant never completed");

    std::printf("%-34s %6s %14s %14s %14s\n", "tenant", "npu",
                "finish_cyc", "translations", "dmaStall_cyc");
    for (const WorkloadRunStats &ws : corun.workloads) {
        std::printf("%-34s %6u %14llu %14llu %14llu\n",
                    ws.name.c_str(), ws.npu,
                    (unsigned long long)ws.finishTick,
                    (unsigned long long)ws.translations,
                    (unsigned long long)ws.dmaStallCycles);
    }
    std::printf("co-run makespan: %llu cycles\n",
                (unsigned long long)corun.totalCycles);

    if (args.getBool("alone", true)) {
        // Interference check: each tenant alone on an otherwise
        // identical machine (same slot count, empty peers).
        std::printf("\n%-34s %14s %14s %9s\n", "tenant",
                    "alone_cyc", "shared_cyc", "slowdown");
        const std::vector<std::string> specs =
            args.getList("workloads", list);
        for (std::size_t i = 0; i < specs.size(); i++) {
            SystemConfig cfg =
                machineFor(mmu_arg, unsigned(corun.workloads.size()));
            System alone_sys(cfg);
            Scheduler alone(alone_sys);
            alone.add(makeWorkloadFromSpecChecked(specs[i]),
                      corun.workloads[i].npu);
            const SchedulerResult solo = alone.run();
            const Tick alone_cyc = solo.workloads[0].finishTick;
            const Tick shared_cyc = corun.workloads[i].finishTick;
            std::printf("%-34s %14llu %14llu %8.2fx\n",
                        corun.workloads[i].name.c_str(),
                        (unsigned long long)alone_cyc,
                        (unsigned long long)shared_cyc,
                        alone_cyc ? double(shared_cyc) /
                                        double(alone_cyc)
                                  : 0.0);
        }
    }

    const std::string json_path = args.get("json", "");
    if (!json_path.empty() &&
        system->writeStatsJsonFile(json_path))
        std::printf("\nwrote full stats JSON (incl. per-tenant wl* "
                    "groups) to %s\n", json_path.c_str());

    std::printf("\nTakeaway: tenants are factory specs, machines are "
                "configs -- a new co-run\nscenario is one command "
                "line, not a new driver.\n");
    return 0;
} catch (const std::exception &e) {
    NEUMMU_FATAL(e.what());
}
