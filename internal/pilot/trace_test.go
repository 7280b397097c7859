package pilot

import (
	"strings"
	"testing"
)

func TestRenderTimeline(t *testing.T) {
	events := []Event{
		{Kind: KindPilot, ID: "pilot.0001(PA)", From: "", To: string(PilotNew), At: 0},
		{Kind: KindPilot, ID: "pilot.0001(PA)", From: string(PilotNew), To: string(PilotActive), At: 100},
		{Kind: KindUnit, ID: "unit.00001(pre)", From: "", To: string(UnitNew), At: 100},
		{Kind: KindUnit, ID: "unit.00001(pre)", From: string(UnitNew), To: string(UnitDone), At: 900},
		{Kind: KindPilot, ID: "pilot.0001(PA)", From: string(PilotActive), To: string(PilotDone), At: 1000},
	}
	out := RenderTimeline(events, 40)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines: %q", out)
	}
	// Pilot lane before unit lane.
	if !strings.Contains(lines[1], "pilot.0001") || !strings.Contains(lines[2], "unit.00001") {
		t.Errorf("lane order:\n%s", out)
	}
	if !strings.Contains(lines[1], "DONE") || !strings.Contains(lines[2], "DONE") {
		t.Errorf("final states missing:\n%s", out)
	}
	// The pilot bar spans the full width; the unit starts later.
	pilotStart := strings.IndexByte(lines[1], '[')
	unitStart := strings.IndexByte(lines[2], '[')
	if unitStart <= pilotStart {
		t.Errorf("unit bar does not start after pilot bar:\n%s", out)
	}
}

func TestRenderTimelineDegenerate(t *testing.T) {
	if out := RenderTimeline(nil, 40); !strings.Contains(out, "no events") {
		t.Errorf("empty: %q", out)
	}
	if out := RenderTimeline([]Event{}, 40); !strings.Contains(out, "no events") {
		t.Errorf("empty slice: %q", out)
	}

	// Width below the minimum clamps to 20 columns.
	out := RenderTimeline([]Event{
		{Kind: KindUnit, ID: "u", To: "NEW", At: 0},
		{Kind: KindUnit, ID: "u", From: "NEW", To: "DONE", At: 100},
	}, 1)
	lane := laneFor(t, out, "u")
	if got := strings.LastIndexByte(lane, '|') - strings.IndexByte(lane, '|') - 1; got != 20 {
		t.Errorf("clamped bar width %d, want 20:\n%s", got, out)
	}

	// A single instantaneous event (span <= 0) still renders a lane
	// with both brackets, not just a closing one.
	out = RenderTimeline([]Event{{Kind: KindUnit, ID: "u", To: "NEW", At: 0}}, 40)
	lane = laneFor(t, out, "u")
	if !strings.Contains(lane, "[") || !strings.Contains(lane, "]") {
		t.Errorf("instant lane lost a bracket: %q", lane)
	}
	if strings.Index(lane, "[") >= strings.Index(lane, "]") {
		t.Errorf("brackets out of order: %q", lane)
	}

	// Two lanes ending at the same last column keep both brackets too.
	out = RenderTimeline([]Event{
		{Kind: KindPilot, ID: "p", To: "NEW", At: 0},
		{Kind: KindPilot, ID: "p", From: "NEW", To: "DONE", At: 1000},
		{Kind: KindUnit, ID: "u", To: "NEW", At: 999},
		{Kind: KindUnit, ID: "u", From: "NEW", To: "DONE", At: 1000},
	}, 40)
	lane = laneFor(t, out, "u")
	if !strings.Contains(lane, "[") || !strings.Contains(lane, "]") {
		t.Errorf("end-of-chart lane lost a bracket: %q", lane)
	}
}

// laneFor extracts the rendered swimlane for an entity ID.
func laneFor(t *testing.T, out, id string) string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, id+" ") {
			return line
		}
	}
	t.Fatalf("no lane for %q in:\n%s", id, out)
	return ""
}

func TestRenderTimelineFromRealRun(t *testing.T) {
	_, m := newRig()
	p := activePilot(t, m, 1)
	um := newUnitManager(t, p)
	um.Submit([]UnitDescription{{
		Name: "job", Slots: 4,
		Work: func(env *ExecEnv) (WorkResult, error) { return WorkResult{Duration: 60}, nil },
	}})
	um.Run()
	m.CompletePilot(p)
	out := RenderTimeline(m.Store().History(), 60)
	if !strings.Contains(out, "pilot.0001") || !strings.Contains(out, "unit.00001(job)") {
		t.Errorf("timeline:\n%s", out)
	}
}
