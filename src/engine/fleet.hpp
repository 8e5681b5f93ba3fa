/**
 * @file
 * Data-parallel replica fleet: the dp= axis above the event core.
 *
 * A FleetAccelerator owns ONE replica prototype — a full pp= x tp=
 * serving group — and a data-parallel degree N. Replicas are identical
 * stateless cost models, so the fleet holds the prototype once; what
 * makes them distinct at serving time is the traffic and the faults
 * routed to each. The FleetRouter is that serving path: it splits an
 * arrival trace across the replicas with a pluggable selection policy
 * (least-loaded by outstanding KV bytes, or round-robin), runs each
 * replica's sub-trace through its own ServingSimulator/event core, and
 * merges the per-replica reports into one fleet ServingReport whose
 * sample-derived aggregates follow the single-engine definitions
 * (finalizeServingAggregates).
 *
 * Failover: the fleet builds ONE fault timeline over dp x kvShards
 * fault domains and slices it per replica (chip events land on the
 * owning replica; fleet-wide link/straggler windows reach every
 * replica). A replica with a fatal permanent failure drops its queued
 * and future work — the router re-dispatches those drops to surviving
 * replicas at max(arrival, death) plus the retry backoff, bounded by
 * the per-request deadline, so the existing retry/backoff/deadline
 * vocabulary covers replica failover too.
 *
 * One pass, in death order: a re-dispatch lands only on a replica
 * alive at that time (backoff >= 0), i.e. one that dies strictly
 * later or never. So the router runs the dying replicas one at a time
 * in order of death (ties by index), rerouting each one's drops into
 * its targets' sub-traces right after it runs, and then fans the
 * replicas that never die out in parallel. Each replica is simulated
 * exactly once, and a request hops at most dp - 1 times by
 * construction (each hop goes to a later-dying replica). Reroutes
 * enter the merged retryOrder after the per-replica streams, in that
 * death order. Trade-off: a dying replica that reroutes nothing still
 * runs before the survivors' fan-out and delays it by its own run
 * time; no CPU work is added.
 *
 * dp=1 is the identity: name/capabilities/configSummary forward
 * verbatim and the router delegates wholesale to a single-replica
 * ServingSimulator, so a dp=1 fleet report is bit-identical to the
 * flat path (tests/test_fleet.cpp asserts this down to the report).
 * Because routing, slicing and merging are all deterministic functions
 * of the trace and the timeline, the coalesced-vs-per-token identity
 * contract survives the fleet: both step modes see identical
 * sub-traces and merge identically.
 */
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "engine/accelerator.hpp"
#include "engine/serving.hpp"
#include "model/request.hpp"

namespace mcbp::engine {

/** Replica-selection policy of the fleet router. */
enum class ReplicaPolicy
{
    /** Route to the replica with the least outstanding KV bytes
     *  (estimated from the costed trace; ties to the lowest index). */
    LeastLoaded,
    /** Route request k to replica k mod dp (skipping dead replicas). */
    RoundRobin,
};

/** Canonical name: "least-loaded" or "round-robin". */
std::string toString(ReplicaPolicy policy);
/** Parse "least"/"least-loaded" or "rr"/"round-robin" (fatal else). */
ReplicaPolicy replicaPolicyFromString(const std::string &name);

/** Fleet shape. */
struct FleetOptions
{
    /** Replica count (each a full pp= x tp= group). */
    std::size_t dataParallel = 1;
    ReplicaPolicy policy = ReplicaPolicy::LeastLoaded;
};

/** N identical serving replicas presented as one Accelerator. */
class FleetAccelerator : public Accelerator
{
  public:
    FleetAccelerator(std::unique_ptr<Accelerator> replica,
                     FleetOptions opts);

    std::string name() const override;
    Capabilities capabilities() const override;
    std::string configSummary() const override;
    /** A request runs on exactly one replica, so the fleet's plan for
     *  one inference IS the replica's plan (capacity, not speed,
     *  multiplies with dp). */
    accel::ExecutionPlan plan(const model::LlmConfig &model,
                              const model::Workload &task) const override
    {
        return replica_->plan(model, task);
    }
    void
    profileRequests(const model::LlmConfig &model,
                    const model::Workload &task,
                    std::vector<accel::ProfileRequest> &out) const override
    {
        replica_->profileRequests(model, task, out);
    }
    std::shared_ptr<accel::ProfileCache> profileCache() const override
    {
        return replica_->profileCache();
    }

    const Accelerator &replica() const { return *replica_; }
    const FleetOptions &options() const { return opts_; }

  private:
    std::unique_ptr<Accelerator> replica_;
    FleetOptions opts_;
};

/** Everything the fleet serving path produces (the merged report plus
 *  the per-replica views tests and benches inspect). */
struct FleetOutcome
{
    ServingReport fleet;
    /** Per-replica reports, replica order (dp entries; dp=1 has 1). */
    std::vector<ServingReport> replicas;
    /** Final replica index of each trace entry, trace order. */
    std::vector<std::size_t> assignment;
    /** Failover re-dispatches performed (0 on healthy runs). */
    std::size_t reroutes = 0;
    /** Replica simulations run: dp on the routed path (each replica
     *  exactly once, however many reroutes it receives); 1 at dp=1
     *  and for an empty trace, which share one simulation. */
    std::size_t replicaRuns = 0;
};

/**
 * The dp >= 1 serving path: route, simulate each replica exactly once
 * in death order (dying replicas serially, rerouting each one's drops
 * before the next runs; never-dying replicas last, in parallel),
 * merge. A request hops at most dp - 1 times by construction, the
 * fleet reroutes close retryOrder in death order of the replica they
 * leave, and a dying replica that reroutes nothing delays the
 * survivors' fan-out by its own run time (CPU work never grows).
 * ServingSimulator::simulate() delegates here for any
 * FleetAccelerator; the router is public so tests and benches can see
 * per-replica reports and the assignment.
 *
 * ServingOptions semantics at dp > 1: kvCapacityBytes is the FLEET
 * budget, split evenly across replicas (matching the fixed-chip-count
 * comparisons of fig20(g)); maxBatch is per replica engine (each
 * replica is an independent continuous-batching engine); faults
 * describe the whole fleet over dp x kvShards domains; degradedAccel
 * may be the fleet's degraded twin (its replica is unwrapped for the
 * per-replica simulators). At dp=1 every knob keeps its flat meaning.
 */
class FleetRouter
{
  public:
    FleetRouter(const FleetAccelerator &fleet, ServingOptions opts);

    FleetOutcome simulate(const std::vector<model::Request> &trace) const;

  private:
    const FleetAccelerator *fleet_;
    ServingOptions opts_;
};

} // namespace mcbp::engine
