package ftnet

import (
	"ftnet/internal/commit"
	"ftnet/internal/fleet"
	"ftnet/internal/ft"
	"ftnet/internal/journal"
)

// This file exposes the online reconfiguration service: a Manager owns
// live network instances, absorbs streams of fault/repair events
// (singly or as atomic bursts), and answers "where does target node x
// run now?" lock-free from an immutable epoch snapshot; each
// transition builds its O(k) mapping in place. Every accepted
// transition flows through one ordered commit pipeline — journal
// append, durability wait, snapshot publish, subscriber fan-out — so
// the WAL, the live watch stream, follower replication, and checkpoint
// compaction all observe the same gap-free sequence. cmd/ftnetd serves
// this API over HTTP/JSON; cmd/ftload generates traffic against it.

// Fleet-facing types, re-exported from internal/fleet.
type (
	// FleetManager is the sharded registry owning many live instances:
	// Create, Get and Delete them, feed them Event or EventBatch, ask
	// Lookup, read Stats.
	FleetManager = fleet.Manager
	// FleetOptions configures NewFleetManager.
	FleetOptions = fleet.Options
	// FleetSpec describes the topology of one instance.
	FleetSpec = fleet.Spec
	// FleetEvent is one fault or repair notification.
	FleetEvent = fleet.Event
	// FleetInstance is one live network's state machine.
	FleetInstance = fleet.Instance
	// FleetStats is the fleet-wide counter snapshot.
	FleetStats = fleet.Stats
	// FleetSnapshot is the immutable per-epoch state (fault set +
	// mapping + epoch) an instance publishes; FleetInstance.Snapshot
	// returns the current one, and it stays valid for its epoch after
	// later events.
	FleetSnapshot = ft.Snapshot
	// FleetJournal is the durable epoch journal: an append-only log of
	// one O(k) CRC32C-framed record per accepted transition. Pass it in
	// FleetOptions.Journal (or via FleetManager.SetJournal after
	// recovery) and replay it with FleetManager.Recover/RecoverFile.
	FleetJournal = journal.Writer
	// FleetJournalOptions selects the journal's fsync policy and
	// buffering.
	FleetJournalOptions = journal.Options
	// FleetRecoverStats reports a journal replay: records, transitions,
	// torn-tail handling, and wall-clock recovery time.
	FleetRecoverStats = fleet.RecoverStats
	// FleetCommitEntry is one committed transition: the canonical
	// journal record plus its fleet-wide, gap-free sequence number.
	// FleetManager.Subscribe streams them (catch-up, then live tail).
	FleetCommitEntry = commit.Entry
	// FleetCommitSub is a bounded subscription to the commit stream;
	// read entries from C and check Err when it closes.
	FleetCommitSub = commit.Sub
	// FleetCompactStats reports one checkpoint compaction
	// (FleetManager.Compact): the journal is atomically rewritten as
	// [seq marker, one checkpoint record per instance], bounding replay.
	FleetCompactStats = fleet.CompactStats
	// FleetFollower tails another daemon's /v1/watch stream and turns
	// the local manager into a verified replica: every forwarded record
	// is validated on receipt and its mapping computed by NewMapping, so
	// the replica is bit-identical to a fresh recomputation by
	// construction.
	FleetFollower = fleet.Follower
	// FleetFollowerOptions tunes the replication loop.
	FleetFollowerOptions = fleet.FollowerOptions
	// FleetFollowerStats is the replication loop's counter snapshot.
	FleetFollowerStats = fleet.FollowerStats
	// FleetWatchEntry is the NDJSON wire form of a commit entry on the
	// GET /v1/watch stream.
	FleetWatchEntry = fleet.WatchEntry
)

// Topology kinds and event kinds for FleetSpec / FleetEvent.
const (
	FleetDeBruijn = fleet.KindDeBruijn
	FleetShuffle  = fleet.KindShuffle
	FleetFault    = fleet.EventFault
	FleetRepair   = fleet.EventRepair
)

// Journal fsync policies for FleetJournalOptions.Sync.
const (
	FleetSyncAlways   = journal.SyncAlways   // fsync before acknowledging (group-committed)
	FleetSyncInterval = journal.SyncInterval // hand to the kernel before acknowledging, fsync on a timer
	FleetSyncNever    = journal.SyncNever    // hand to the kernel before acknowledging, fsync on Close only
)

// NewFleetManager returns an empty online-reconfiguration manager.
func NewFleetManager(opts FleetOptions) *FleetManager {
	return fleet.NewManager(opts)
}

// OpenFleetJournal opens (or creates) a durable epoch journal file in
// append mode. Recover the previous log into the manager first
// (FleetManager.RecoverFile also truncates any torn tail), then attach
// the writer with FleetManager.SetJournal.
func OpenFleetJournal(path string, opts FleetJournalOptions) (*FleetJournal, error) {
	return journal.Create(path, opts)
}

// NewFleetFollower wires a replication loop from a leader daemon's
// base URL into mgr; drive it with its Run method. It puts the manager
// in the read-only posture — its state comes from the leader's commit
// stream, so direct writes are refused until it is promoted
// (FleetManager.Promote, which stops the loop itself).
func NewFleetFollower(mgr *FleetManager, leaderURL string, opts FleetFollowerOptions) (*FleetFollower, error) {
	return fleet.NewFollower(mgr, leaderURL, opts)
}
