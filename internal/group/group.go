// Package group implements EnviroMic's group management (§II-A.1): nodes
// that hear the same acoustic event compete with randomized back-off
// timers to elect a single-hop leader; the leader names the event (the
// file ID), drives task assignment, and hands leadership off with a
// RESIGN message carrying the file ID and the scheduled next assignment
// time when the source moves out of its sensing range. Every hearing node
// broadcasts periodic SENSING messages so leaders (and would-be leaders
// after a handoff) know the member set without extra traffic. The
// optional prelude optimization records the first second of a new event
// locally, before coordination, so short events are not lost to election
// latency.
package group

import (
	"fmt"
	"math/rand"
	"time"

	"enviromic/internal/flash"
	"enviromic/internal/netstack"
	"enviromic/internal/obs"
	"enviromic/internal/radio"
	"enviromic/internal/sim"
	"enviromic/internal/task"
)

// Payload kinds, interned at package init.
var (
	KindSensing = radio.RegisterKind("group.sensing")
	KindLeader  = radio.RegisterKind("group.leader")
	KindResign  = radio.RegisterKind("group.resign")
	KindPrelude = radio.RegisterKind("group.preludekeep")
)

// Trace event kinds (see DESIGN.md §11). V1/V2 meanings:
// elect.backoff V1 = chosen back-off in ns; elect.lost Peer = winner (-1
// when the election was abandoned, e.g. hearing ended first); handoff
// Peer = resigning leader, V1 = inherited next-assignment time in ns;
// prelude.keep Peer = chosen keeper; prelude.stored V1/V2 =
// stored/total chunks; hearing V1 = 1 began / 0 ended.
var (
	evHearing      = obs.RegisterEvent("group.hearing")
	evElectBackoff = obs.RegisterEvent("group.elect.backoff")
	evElectWon     = obs.RegisterEvent("group.elect.won")
	evElectLost    = obs.RegisterEvent("group.elect.lost")
	evResign       = obs.RegisterEvent("group.resign")
	evHandoff      = obs.RegisterEvent("group.handoff")
	evPreludeKeep  = obs.RegisterEvent("group.prelude.keep")
	evPreludeStore = obs.RegisterEvent("group.prelude.stored")
)

// Sensing is the periodic "I can hear the event" heartbeat. It carries
// the sender's time-to-live and received signal strength so the leader
// can pick the most suitable recorder, plus whether the sender holds a
// prelude buffer.
type Sensing struct {
	TTLSeconds uint32
	Signal     float64
	HasPrelude bool
}

// Kind implements radio.Payload.
func (Sensing) Kind() radio.KindID { return KindSensing }

// Size implements radio.Payload.
func (Sensing) Size() int { return 9 }

// Leader announces leadership and names the event's file ID.
type Leader struct {
	File flash.FileID
}

// Kind implements radio.Payload.
func (Leader) Kind() radio.KindID { return KindLeader }

// Size implements radio.Payload.
func (Leader) Size() int { return 4 }

// Resign hands leadership off: the file ID preserves recording
// continuity and NextAssignAt tells the successor when the next task is
// due (Fig 5).
type Resign struct {
	File         flash.FileID
	NextAssignAt sim.Time
}

// Kind implements radio.Payload.
func (Resign) Kind() radio.KindID { return KindResign }

// Size implements radio.Payload.
func (Resign) Size() int { return 12 }

// PreludeKeep tells one member to persist its prelude recording under the
// event's file ID; everyone else erases theirs (§II-A.1).
type PreludeKeep struct {
	File   flash.FileID
	Keeper int
}

// Kind implements radio.Payload.
func (PreludeKeep) Kind() radio.KindID { return KindPrelude }

// Size implements radio.Payload.
func (PreludeKeep) Size() int { return 8 }

// Sensor abstracts acoustic detection for the manager. The core layer
// wires the mote's envelope, the background-noise detector, and the
// field's detection probability into one Detect call.
type Sensor interface {
	// Detect reports whether an acoustic event is perceived right now.
	Detect(at sim.Time) bool
	// Signal returns the current received envelope (0 when silent).
	Signal(at sim.Time) float64
}

// TTLSource exposes the node's current storage time-to-live; the storage
// balancer implements it. The value rides in SENSING messages for
// recorder selection.
type TTLSource interface {
	TTLSeconds(at sim.Time) uint32
}

// PreludeDevice persists a prelude buffer; the core layer implements it
// over the mote. Separate from task.Device because the prelude is
// captured retroactively (the past interval), not during a task.
type PreludeDevice interface {
	CaptureSamples(start, end sim.Time) []byte
	StoreChunks(chunks []*flash.Chunk) int
}

// Probe carries optional observer callbacks for the metrics layer.
type Probe struct {
	OnElected     func(node int, file flash.FileID, at sim.Time)
	OnHandoff     func(from, to int, file flash.FileID, at sim.Time)
	OnResign      func(node int, file flash.FileID, at sim.Time)
	OnPreludeKeep func(keeper int, file flash.FileID, at sim.Time)
	// OnPreludeStored fires when a keeper persists its prelude buffer to
	// flash; the node layer records it as coverage like any recording.
	OnPreludeStored func(node int, file flash.FileID, start, end sim.Time, stored, total int)
	// OnHearingChanged fires on hearing-state transitions; the node layer
	// uses it to switch the time-sync beacon rate (§III-A).
	OnHearingChanged func(node int, hearing bool, at sim.Time)
}

// Config holds group-management parameters.
type Config struct {
	// PollInterval is the acoustic detection sampling cadence.
	PollInterval time.Duration
	// SenseInterval is the SENSING heartbeat period while hearing.
	SenseInterval time.Duration
	// MemberTimeout expires member-table entries without fresh SENSING.
	MemberTimeout time.Duration
	// ElectBackoffMin and ElectBackoffMax bound the initial-election
	// random back-off. The minimum gives every hearer time to broadcast
	// its first SENSING before a leader emerges, and calibrates the
	// startup delay to the paper's measured ~0.7 s average for election
	// plus first assignment ("up to one second").
	ElectBackoffMin time.Duration
	ElectBackoffMax time.Duration
	// HandoffBackoffMax bounds the (much shorter) re-election back-off
	// after a RESIGN, so handoff finishes before the next task is due.
	HandoffBackoffMax time.Duration
	// SilencePolls is how many consecutive silent polls make a leader
	// resign (or a member consider the event gone).
	SilencePolls int
	// LeaderTimeout re-triggers election when a hearing member sees no
	// leader traffic for this long (leader death).
	LeaderTimeout time.Duration
	// Prelude, when positive, enables the prelude optimization with this
	// buffer length (§II-A.1 suggests one second).
	Prelude time.Duration
	// SelectBySignal switches recorder selection from highest-TTL to
	// best-signal (both are suggested in §II-A.2; an ablation bench
	// compares them).
	SelectBySignal bool
}

// DefaultConfig mirrors the paper's testbed behaviour: the measured 0.7 s
// average to first leader election plus first assignment comes from the
// detection poll plus this election back-off window.
func DefaultConfig() Config {
	return Config{
		PollInterval:      100 * time.Millisecond,
		SenseInterval:     500 * time.Millisecond,
		MemberTimeout:     1100 * time.Millisecond,
		ElectBackoffMin:   450 * time.Millisecond,
		ElectBackoffMax:   950 * time.Millisecond,
		HandoffBackoffMax: 80 * time.Millisecond,
		SilencePolls:      3,
		LeaderTimeout:     2 * time.Second,
	}
}

func (c Config) validate() {
	if c.PollInterval <= 0 || c.SenseInterval <= 0 || c.MemberTimeout <= 0 {
		panic("group: non-positive interval")
	}
	if c.ElectBackoffMax <= 0 || c.HandoffBackoffMax <= 0 {
		panic("group: non-positive back-off window")
	}
	if c.ElectBackoffMin < 0 || c.ElectBackoffMin >= c.ElectBackoffMax {
		panic("group: ElectBackoffMin outside [0, ElectBackoffMax)")
	}
	if c.SilencePolls <= 0 {
		panic("group: SilencePolls must be >= 1")
	}
	if c.LeaderTimeout <= c.SenseInterval {
		panic("group: LeaderTimeout must exceed SenseInterval")
	}
}

type member struct {
	lastHeard  sim.Time
	ttl        uint32
	signal     float64
	hasPrelude bool
}

// Manager is one node's group-management module.
type Manager struct {
	cfg   Config
	id    int
	stack *netstack.Stack
	sched *sim.Scheduler
	// rng is the node's private random stream (election backoffs and
	// jitter draws must be per-node so sharded runs replay serially).
	rng   *rand.Rand
	sens  Sensor
	ttl   TTLSource
	tasks *task.Service
	pd    PreludeDevice
	probe Probe
	tr    *obs.Tracer

	hearing      bool
	silentPolls  int
	leaderID     int // -1 when unknown
	leaderFile   flash.FileID
	lastLeaderAt sim.Time
	electTimer   *sim.Timer
	// pendingFile carries a file ID across a handoff (from RESIGN);
	// pendingAssign the successor's first assignment time.
	pendingFile   flash.FileID
	pendingAssign sim.Time

	members    map[int]*member
	fileSerial uint32

	lastSensingAt sim.Time

	// Prelude state.
	preludeStart sim.Time
	preludeUntil sim.Time
	havePrelude  bool

	pollTicker  *sim.Ticker
	senseTicker *sim.Ticker
	started     bool
}

// NewManager wires a manager onto the node's stack and task service,
// installing itself as the task service's member view.
func NewManager(id int, stack *netstack.Stack, sched *sim.Scheduler, sens Sensor, ttl TTLSource, tasks *task.Service, pd PreludeDevice, cfg Config, probe Probe) *Manager {
	cfg.validate()
	m := &Manager{
		cfg:      cfg,
		id:       id,
		stack:    stack,
		sched:    sched,
		rng:      stack.Endpoint().Rand(),
		sens:     sens,
		ttl:      ttl,
		tasks:    tasks,
		pd:       pd,
		probe:    probe,
		leaderID: -1,
		members:  make(map[int]*member),
	}
	stack.Register(KindSensing, m.handleSensing)
	stack.Register(KindLeader, m.handleLeader)
	stack.Register(KindResign, m.handleResign)
	stack.Register(KindPrelude, m.handlePreludeKeep)
	tasks.SetView(m)
	tasks.SetOnRecordingDone(m.recordingDone)
	tasks.SetOnPeerLeader(m.resolveLeaderCollision)
	return m
}

// SetTracer installs the protocol tracer (nil disables tracing).
func (m *Manager) SetTracer(tr *obs.Tracer) { m.tr = tr }

// resolveLeaderCollision handles a TASK_REQUEST arriving from a competing
// leader of the same event (both elected, e.g., across radio-off
// windows). The lower ID keeps the role; the return value tells the task
// layer whether to serve the request as a member.
func (m *Manager) resolveLeaderCollision(from int) bool {
	if from < m.id {
		// The peer outranks us: step down and join its group.
		if m.tasks.Leading() {
			m.tasks.StopLeading()
		}
		m.leaderID = from
		m.lastLeaderAt = m.sched.Now()
		return true
	}
	// We outrank the peer: re-assert leadership; it will step down on
	// hearing the announcement.
	m.stack.SendUrgent(radio.Broadcast, Leader{File: m.leaderFile})
	return false
}

// Start begins detection polling.
func (m *Manager) Start() {
	if m.started {
		panic(fmt.Sprintf("group: manager %d already started", m.id))
	}
	m.started = true
	m.pollTicker = sim.NewTicker(m.sched, m.cfg.PollInterval, fmt.Sprintf("group.poll.%d", m.id), m.poll)
}

// Stop halts all activity (used for failure injection).
func (m *Manager) Stop() {
	if m.pollTicker != nil {
		m.pollTicker.Stop()
	}
	if m.senseTicker != nil {
		m.senseTicker.Stop()
	}
	if m.electTimer != nil {
		m.electTimer.Cancel()
	}
	if m.tasks.Leading() {
		m.tasks.StopLeading()
	}
	m.started = false
}

// Reset clears the manager's volatile state to power-on defaults (chaos
// reboot): hearing, leadership knowledge, pending handoff, membership
// table, and prelude state all lived in RAM and are lost. fileSerial is
// deliberately kept — the paper's implementation persists the ID counter
// in EEPROM so a rebooted node never re-issues a file ID that chunks in
// the network already carry. Call while stopped, before Start.
func (m *Manager) Reset() {
	if m.started {
		panic(fmt.Sprintf("group: manager %d reset while started", m.id))
	}
	m.hearing = false
	m.silentPolls = 0
	m.leaderID = -1
	m.leaderFile = 0
	m.lastLeaderAt = 0
	m.pendingFile = 0
	m.pendingAssign = 0
	m.lastSensingAt = 0
	m.preludeStart = 0
	m.preludeUntil = 0
	m.havePrelude = false
	for id := range m.members {
		delete(m.members, id)
	}
}

// Hearing reports whether the node currently perceives an event.
func (m *Manager) Hearing() bool { return m.hearing }

// LeaderID returns the known leader (or -1). The node itself may be the
// leader.
func (m *Manager) LeaderID() int { return m.leaderID }

// CurrentFile returns the file ID of the event in progress (0 if none).
func (m *Manager) CurrentFile() flash.FileID { return m.leaderFile }

// newFileID allocates a network-unique file ID: node ID in the high bits,
// a local serial in the low bits.
func (m *Manager) newFileID() flash.FileID {
	m.fileSerial++
	return flash.FileID(uint32(m.id+1)<<16 | (m.fileSerial & 0xFFFF))
}

// poll runs every PollInterval: updates the hearing state and drives the
// election state machine.
func (m *Manager) poll() {
	now := m.sched.Now()
	if m.tasks.Recording() {
		// Sampling for a task; detection and messaging are suspended
		// (§III-B.1 — the radio is off anyway).
		return
	}
	detected := m.sens.Detect(now)
	switch {
	case detected && !m.hearing:
		m.hearingBegan(now)
	case detected:
		m.silentPolls = 0
	case m.hearing:
		m.silentPolls++
		if m.silentPolls >= m.cfg.SilencePolls {
			m.hearingEnded(now)
		}
	}
	if m.hearing && m.leaderID >= 0 && m.leaderID != m.id &&
		now.Sub(m.lastLeaderAt) > m.cfg.LeaderTimeout {
		// Leader died or moved away without resigning: re-elect, keeping
		// the file ID for continuity.
		m.leaderID = -1
		m.pendingFile = m.leaderFile
		m.pendingAssign = now
		m.startElection(0, m.cfg.HandoffBackoffMax)
	}
}

func (m *Manager) hearingBegan(now sim.Time) {
	m.hearing = true
	m.silentPolls = 0
	m.tr.Emit(now, evHearing, int32(m.id), obs.NoPeer, 0, 1, 0)
	if m.probe.OnHearingChanged != nil {
		m.probe.OnHearingChanged(m.id, true, now)
	}
	if m.cfg.Prelude > 0 && !m.havePrelude && m.leaderID < 0 {
		// Arm the prelude before the first SENSING goes out, so the
		// HasPrelude flag is advertised from the very first heartbeat.
		m.preludeStart = now
		m.preludeUntil = now.Add(m.cfg.Prelude)
		m.havePrelude = true
	}
	if m.leaderID >= 0 && now.Sub(m.lastLeaderAt) > m.cfg.LeaderTimeout {
		// The remembered leader belongs to a long-finished event (we may
		// have missed its RESIGN while recording): this detection is a
		// new event and must get its own election and file ID — the
		// paper expects temporally separated events to produce separate
		// files (§II-A.1).
		m.leaderID = -1
		m.leaderFile = 0
		m.pendingFile = 0
	}
	m.touchSelf(now)
	if m.senseTicker == nil || m.senseTicker.Stopped() {
		m.senseTicker = sim.NewTicker(m.sched, m.cfg.SenseInterval, fmt.Sprintf("group.sense.%d", m.id), m.sendSensing)
	}
	m.sendSensing()
	if m.leaderID < 0 && !m.electTimer.Pending() {
		delay := time.Duration(0)
		if m.cfg.Prelude > 0 {
			// Election waits for the prelude interval (§II-A.1).
			delay = m.cfg.Prelude
		}
		m.sched.After(delay, fmt.Sprintf("group.electstart.%d", m.id), func() {
			if m.hearing && m.leaderID < 0 {
				m.startElection(m.cfg.ElectBackoffMin, m.cfg.ElectBackoffMax)
			}
		})
	}
}

func (m *Manager) hearingEnded(now sim.Time) {
	m.hearing = false
	m.silentPolls = 0
	m.tr.Emit(now, evHearing, int32(m.id), obs.NoPeer, 0, 0, 0)
	if m.probe.OnHearingChanged != nil {
		m.probe.OnHearingChanged(m.id, false, now)
	}
	if m.senseTicker != nil {
		m.senseTicker.Stop()
	}
	if m.electTimer.Cancel() {
		// An armed back-off abandoned without a winner still closes its
		// election span in the trace.
		m.tr.Emit(now, evElectLost, int32(m.id), obs.NoPeer, uint32(m.leaderFile), 0, 0)
	}
	delete(m.members, m.id)
	// A final zero-signal SENSING removes us from neighbors' member
	// tables immediately: a leader must not assign a recording task to a
	// node that just stopped hearing the (moving) source.
	if m.stack.Endpoint().RadioOn() {
		m.stack.SendUrgent(radio.Broadcast, Sensing{Signal: 0})
	}
	if m.leaderID == m.id {
		m.resign(now)
	}
	// A member that stops hearing simply goes quiet; its table entry at
	// the leader expires. Leader identity is retained so a re-detection
	// of the same continuing event does not spawn a second leader.
	if m.havePrelude && m.leaderID < 0 {
		// The event ended before any leader emerged: the prelude is the
		// only recording of it. Compete (short back-off) to be its
		// keeper; losers hear the winner's PreludeKeep and erase.
		m.claimPrelude()
	}
}

// claimPrelude resolves ownership of an orphaned prelude (a short event
// that ended before election). The winner persists the buffer under a
// fresh file ID and announces it; holders that hear the announcement
// first discard theirs.
func (m *Manager) claimPrelude() {
	// ID-staggered back-off: slots are wider than the radio's frame
	// latency, so the winner's announcement arrives before the next
	// claimant's timer fires and exactly one keeper survives per
	// neighborhood.
	backoff := 50*time.Millisecond +
		time.Duration(m.id%16)*40*time.Millisecond +
		time.Duration(m.rng.Int63n(int64(5*time.Millisecond)))
	m.sched.After(backoff, fmt.Sprintf("group.preludeclaim.%d", m.id), func() {
		if !m.havePrelude || m.tasks.Recording() {
			return
		}
		file := m.newFileID()
		m.stack.SendUrgent(radio.Broadcast, PreludeKeep{File: file, Keeper: m.id})
		m.tr.Emit(m.sched.Now(), evPreludeKeep, int32(m.id), int32(m.id), uint32(file), 0, 0)
		if m.probe.OnPreludeKeep != nil {
			m.probe.OnPreludeKeep(m.id, file, m.sched.Now())
		}
		m.persistPrelude(file)
	})
}

// resign relinquishes leadership, broadcasting the file ID and the
// scheduled next assignment time for the successor (Fig 5).
func (m *Manager) resign(now sim.Time) {
	next := m.tasks.StopLeading()
	m.stack.SendUrgent(radio.Broadcast, Resign{File: m.leaderFile, NextAssignAt: next})
	m.tr.Emit(now, evResign, int32(m.id), obs.NoPeer, uint32(m.leaderFile), int64(next), 0)
	if m.probe.OnResign != nil {
		m.probe.OnResign(m.id, m.leaderFile, now)
	}
	m.leaderID = -1
	m.leaderFile = 0
}

// startElection arms the randomized back-off in [min, max) (§II-A.1).
func (m *Manager) startElection(min, max time.Duration) {
	if m.electTimer != nil && m.electTimer.Pending() {
		return
	}
	backoff := min + time.Duration(m.rng.Int63n(int64(max-min)))
	m.tr.Emit(m.sched.Now(), evElectBackoff, int32(m.id), obs.NoPeer, uint32(m.pendingFile), int64(backoff), 0)
	m.electTimer = m.sched.After(backoff, fmt.Sprintf("group.elect.%d", m.id), m.becomeLeader)
}

func (m *Manager) becomeLeader() {
	now := m.sched.Now()
	if !m.hearing || m.leaderID >= 0 || m.tasks.Recording() {
		m.tr.Emit(now, evElectLost, int32(m.id), obs.NoPeer, uint32(m.pendingFile), 0, 0)
		return
	}
	file := m.pendingFile
	assignAt := m.pendingAssign
	handoff := file != 0
	if file == 0 {
		file = m.newFileID()
		assignAt = now
	}
	m.pendingFile = 0
	m.leaderID = m.id
	m.leaderFile = file
	m.lastLeaderAt = now
	m.stack.SendUrgent(radio.Broadcast, Leader{File: file})
	m.tr.Emit(now, evElectWon, int32(m.id), obs.NoPeer, uint32(file), 0, 0)
	if m.probe.OnElected != nil {
		m.probe.OnElected(m.id, file, now)
	}
	m.tasks.StartLeading(file, assignAt)
	if m.cfg.Prelude > 0 && !handoff {
		m.choosePreludeKeeper(file, now)
	}
}

// choosePreludeKeeper picks the member with the strongest advertised
// signal among prelude holders (including itself) and broadcasts the
// decision; everyone else erases their buffer. Equal signals go to the
// lowest node ID: a total order, so the choice never hangs on the
// members map's iteration order, and one every node can apply from what
// the adverts already carry.
func (m *Manager) choosePreludeKeeper(file flash.FileID, now sim.Time) {
	keeper, best := -1, -1.0
	for id, mem := range m.members {
		if !mem.hasPrelude || now.Sub(mem.lastHeard) > m.cfg.MemberTimeout {
			continue
		}
		if mem.signal > best || (mem.signal == best && id < keeper) {
			keeper, best = id, mem.signal
		}
	}
	if keeper < 0 {
		if m.havePrelude {
			// No member advertised a prelude (short event, stale tables):
			// the leader keeps its own buffer rather than letting the
			// event's opening vanish.
			keeper = m.id
		} else {
			return
		}
	}
	m.stack.SendUrgent(radio.Broadcast, PreludeKeep{File: file, Keeper: keeper})
	m.tr.Emit(now, evPreludeKeep, int32(m.id), int32(keeper), uint32(file), 0, 0)
	if m.probe.OnPreludeKeep != nil {
		m.probe.OnPreludeKeep(keeper, file, now)
	}
	if keeper == m.id {
		m.persistPrelude(file)
	} else {
		m.discardPrelude()
	}
}

// persistPrelude writes the buffered opening of the event to flash under
// the event's file ID.
func (m *Manager) persistPrelude(file flash.FileID) {
	if !m.havePrelude || m.pd == nil {
		return
	}
	end := m.preludeUntil
	if now := m.sched.Now(); now < end {
		end = now
	}
	samples := m.pd.CaptureSamples(m.preludeStart, end)
	// Prelude chunks use a dedicated sequence band so they can never
	// collide with the task layer's per-file sequence numbers for the
	// same recorder (identical (file, origin, seq) identities would be
	// deduplicated away at reassembly).
	const preludeSeqBase = 1 << 20
	chunks := flash.SplitSamples(file, int32(m.id), preludeSeqBase, m.preludeStart, end, samples)
	stored := m.pd.StoreChunks(chunks)
	// Chunks rejected by a full flash never entered any store: recycle.
	flash.FreeChunks(chunks[stored:])
	m.tr.Emit(m.sched.Now(), evPreludeStore, int32(m.id), obs.NoPeer, uint32(file), int64(stored), int64(len(chunks)))
	if m.probe.OnPreludeStored != nil {
		m.probe.OnPreludeStored(m.id, file, m.preludeStart, end, stored, len(chunks))
	}
	m.discardPrelude()
}

func (m *Manager) discardPrelude() { m.havePrelude = false }

// sendSensing broadcasts the SENSING heartbeat with the current TTL and
// signal strength. The payload is delay-sensitive enough to go urgently,
// but it is also the natural carrier for piggybacked state.
func (m *Manager) sendSensing() {
	if m.tasks.Recording() || !m.stack.Endpoint().RadioOn() {
		return
	}
	now := m.sched.Now()
	if !m.hearing {
		return
	}
	m.touchSelf(now)
	var ttl uint32
	if m.ttl != nil {
		ttl = m.ttl.TTLSeconds(now)
	}
	if m.leaderID == m.id {
		// Leadership heartbeat: rides the SENSING frame as piggyback, so
		// late joiners learn the leader and colliding leaders discover
		// each other, at zero extra frames.
		m.stack.SendDelayTolerant(Leader{File: m.leaderFile})
	}
	m.lastSensingAt = now
	m.stack.SendUrgent(radio.Broadcast, Sensing{
		TTLSeconds: ttl,
		Signal:     m.sens.Signal(now),
		HasPrelude: m.havePrelude,
	})
}

// touchSelf keeps the node's own entry in its member table current, so a
// leader can consider itself... it cannot: BestRecorder excludes self
// (the leader must keep its radio on to coordinate). The entry exists so
// a handoff successor counts us immediately.
func (m *Manager) touchSelf(now sim.Time) {
	var ttl uint32
	if m.ttl != nil {
		ttl = m.ttl.TTLSeconds(now)
	}
	m.members[m.id] = &member{
		lastHeard:  now,
		ttl:        ttl,
		signal:     m.sens.Signal(now),
		hasPrelude: m.havePrelude,
	}
}

func (m *Manager) handleSensing(from, to int, p radio.Payload) {
	snd, ok := p.(Sensing)
	if !ok {
		return
	}
	now := m.sched.Now()
	if snd.Signal <= 0 {
		// The sender stopped hearing the event: drop it from the member
		// table right away.
		delete(m.members, from)
		return
	}
	m.members[from] = &member{
		lastHeard:  now,
		ttl:        snd.TTLSeconds,
		signal:     snd.Signal,
		hasPrelude: snd.HasPrelude,
	}
	if from == m.leaderID {
		// The leader also hears the event and sends SENSING; that is its
		// liveness signal — no separate leader heartbeat is needed.
		m.lastLeaderAt = now
	}
}

func (m *Manager) handleLeader(from, to int, p radio.Payload) {
	l, ok := p.(Leader)
	if !ok {
		return
	}
	now := m.sched.Now()
	if m.leaderID == m.id && from != m.id {
		// Two back-off timers fired within one propagation delay: both
		// nodes announced. Deterministic rule: the lower ID keeps the
		// role, the higher ID steps down and joins as a member.
		if from < m.id {
			m.tasks.StopLeading()
		} else {
			return // we keep leading; the peer will step down
		}
	}
	if m.electTimer.Cancel() {
		// Our back-off was still pending when the announcement arrived:
		// we lost this election to the sender.
		m.tr.Emit(now, evElectLost, int32(m.id), int32(from), uint32(l.File), 0, 0)
	}
	m.leaderID = from
	m.leaderFile = l.File
	m.lastLeaderAt = now
	m.pendingFile = 0
	// A leader announcement doubles as a membership solicitation: a
	// (re-)elected leader — or one returning from a self-recorded task —
	// has a stale or empty member table, so hearing members refresh it
	// promptly instead of waiting out the SENSING period.
	if m.hearing && !m.tasks.Recording() && now.Sub(m.lastSensingAt) > 30*time.Millisecond {
		delay := time.Duration(m.rng.Int63n(int64(80 * time.Millisecond)))
		m.sched.After(delay, fmt.Sprintf("group.solicit.%d", m.id), func() {
			if m.hearing && !m.tasks.Recording() &&
				m.sched.Now().Sub(m.lastSensingAt) > 30*time.Millisecond {
				m.sendSensing()
			}
		})
	}
}

func (m *Manager) handleResign(from, to int, p radio.Payload) {
	r, ok := p.(Resign)
	if !ok || from != m.leaderID {
		return
	}
	now := m.sched.Now()
	m.leaderID = -1
	m.leaderFile = 0
	if m.hearing {
		// Compete to succeed, preserving the file ID and schedule.
		m.pendingFile = r.File
		m.pendingAssign = r.NextAssignAt
		m.tr.Emit(now, evHandoff, int32(m.id), int32(from), uint32(r.File), int64(r.NextAssignAt), 0)
		if m.probe.OnHandoff != nil {
			m.probe.OnHandoff(from, m.id, r.File, now)
		}
		m.startElection(0, m.cfg.HandoffBackoffMax)
	}
}

func (m *Manager) handlePreludeKeep(from, to int, p radio.Payload) {
	pk, ok := p.(PreludeKeep)
	if !ok {
		return
	}
	if pk.Keeper == m.id {
		m.persistPrelude(pk.File)
	} else {
		m.discardPrelude()
	}
}

// recordingDone is the task service's completion callback: refresh our
// SENSING promptly so the (possibly new) leader sees us again.
func (m *Manager) recordingDone() {
	now := m.sched.Now()
	if m.sens.Detect(now) {
		if !m.hearing {
			m.hearingBegan(now)
		} else {
			m.silentPolls = 0
			m.sendSensing()
		}
	}
	if m.leaderID == m.id {
		// A self-recording leader was deaf for the whole task: re-announce
		// leadership so a colliding leader elected meanwhile steps down.
		m.stack.SendUrgent(radio.Broadcast, Leader{File: m.leaderFile})
	}
}

// BestRecorder implements task.MemberView: pick the most suitable live
// member, excluding the leader itself (it must keep coordinating) and the
// given exclusions. Suitability is (TTL, signal) lexicographic by default
// — the member with the most remaining storage, ties broken by acoustic
// reception — or (signal, TTL) with SelectBySignal. The signal component
// matters even in TTL mode: without a storage balancer all TTLs are
// equal, and for mobile sources picking by reception is what keeps the
// recorder near the target (§II-A.2 offers both criteria).
func (m *Manager) BestRecorder(exclude map[int]bool) (int, bool) {
	now := m.sched.Now()
	bestID := -1
	var bestTTL uint32
	var bestSig float64
	better := func(ttl uint32, sig float64, id int) bool {
		if bestID < 0 {
			return true
		}
		a1, a2 := float64(ttl), sig
		b1, b2 := float64(bestTTL), bestSig
		if m.cfg.SelectBySignal {
			a1, a2 = sig, float64(ttl)
			b1, b2 = bestSig, float64(bestTTL)
		}
		if a1 != b1 {
			return a1 > b1
		}
		if a2 != b2 {
			return a2 > b2
		}
		return id < bestID
	}
	for id, mem := range m.members {
		if id == m.id || exclude[id] {
			continue
		}
		age := now.Sub(mem.lastHeard)
		if age > m.cfg.MemberTimeout {
			continue
		}
		// Recency-discount the advertised signal: for a moving source, a
		// SENSING from a second ago describes where the source *was*. A
		// fresh moderate signal beats a stale strong one.
		sig := mem.signal * (1 - float64(age)/float64(m.cfg.MemberTimeout))
		if better(mem.ttl, sig, id) {
			bestID, bestTTL, bestSig = id, mem.ttl, sig
		}
	}
	return bestID, bestID >= 0
}

// MemberCount implements task.MemberView: live members excluding self.
func (m *Manager) MemberCount() int {
	now := m.sched.Now()
	n := 0
	for id, mem := range m.members {
		if id != m.id && now.Sub(mem.lastHeard) <= m.cfg.MemberTimeout {
			n++
		}
	}
	return n
}
