// Seeded network-level fault injector driving a FaultSchedule.
//
// Installed into Network::Send for the duration of one chaos run. The
// driver (Cluster::Run) feeds it stratum/recovery phase transitions; the
// injector fires mid-stratum and during-recovery crashes by calling
// Network::Crash from inside a send — only the victim is touched; the
// driver's failure detector has to notice the silence — and applies
// message-level fault windows (drops against any worker, duplicate to
// restored nodes, intra-batch delta reordering). All decisions derive from
// the schedule plus the
// schedule's seed; the quiescence counter stays exact under every fault
// because drops never enter the in-flight count and duplicates enter (and
// leave) it once per delivered copy.
#ifndef REX_SIM_CHAOS_INJECTOR_H_
#define REX_SIM_CHAOS_INJECTOR_H_

#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "net/fault_injector.h"
#include "net/network.h"
#include "sim/fault_schedule.h"

namespace rex {

class ChaosInjector : public FaultInjector {
 public:
  ChaosInjector(FaultSchedule schedule, Network* network);

  // -- FaultInjector ------------------------------------------------------
  Action OnSend(Message* msg) override;

  // -- driver hooks (driver thread, network quiescent) --------------------

  /// Boundary-scheduled crash events due just before `stratum` begins.
  /// Marks them fired and returns the victims.
  std::vector<int> TakeDueCrashes(int stratum);

  /// Mid-stratum crash events for strata <= `stratum` that never reached
  /// their message count. Called after the stratum's quiescence: the driver
  /// kills the victims and aborts the stratum exactly as if the crash had
  /// fired in flight (a drop window may be tied to the crash, so the
  /// stratum's results cannot be trusted). Marks them fired.
  std::vector<int> TakeOverdueMidStratumCrashes(int stratum);

  /// Restore events due at the boundary before `stratum`. Marks them fired.
  std::vector<int> TakeRestores(int stratum);

  /// Checkpoint-corruption events due at the boundary before `stratum`.
  /// Marks them fired; returns (holder, max_entries) pairs for the driver
  /// to apply via CheckpointStore::CorruptCopies.
  std::vector<std::pair<int, int>> TakeDueCorruptions(int stratum);

  /// Arms mid-stratum events for `stratum` and resets the per-stratum send
  /// counter.
  void BeginStratum(int stratum);

  /// Recovery phase markers: between them, during-recovery crash events are
  /// armed and count recovery traffic.
  void BeginRecovery();
  void EndRecovery();

  /// During-recovery crashes that were armed but never reached their
  /// message count within the recovery traffic; the driver fails them right
  /// after the recovery pass (a crash immediately after recovering). Marks
  /// them fired and returns the victims.
  std::vector<int> TakeUnfiredRecoveryCrashes();

  /// True when every crash and restore event has fired — the run's
  /// validation that no scheduled fault silently missed the query.
  bool AllMandatoryEventsFired() const;
  /// Human-readable list of unfired crash/restore events.
  std::string UnfiredEventsToString() const;

  void NoteRecoveryRound();

  ChaosStats stats() const;

  const FaultSchedule& schedule() const { return schedule_; }

 private:
  /// Deactivates drop windows aimed at `worker` (mutex held). A drop is
  /// only safe while its doomed target is still headed for the paired
  /// mid-stratum crash — the abort discards the lossy stratum. Once the
  /// crash has fired, any send still matching the window belongs to a
  /// post-recovery re-execution of that stratum (restart strategies rewind
  /// the counter), where dropping would silently lose real deltas.
  void DisarmDropsForLocked(int worker);

  FaultSchedule schedule_;
  Network* network_;

  mutable std::mutex mutex_;
  Rng rng_;
  std::vector<bool> fired_;  // parallel to schedule_.events
  int current_stratum_ = 0;
  bool in_recovery_ = false;
  int64_t stratum_sends_ = 0;   // non-control sends this stratum
  int64_t recovery_sends_ = 0;  // non-control sends this recovery pass
  ChaosStats stats_;
};

}  // namespace rex

#endif  // REX_SIM_CHAOS_INJECTOR_H_
