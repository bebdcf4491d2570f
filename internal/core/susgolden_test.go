package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"dreamsim/internal/fault"
	"dreamsim/internal/metrics"
	"dreamsim/internal/model"
)

// susGoldenScript drives the suspension-retry golden: a reconfiguration
// fault armed every cfailEvery ticks until the horizon (a fault that
// fires on a retry placement re-suspends its task in the middle of a
// queue walk) plus crash/recover pairs whose victims are re-suspended
// carrying a non-zero retry count.
func susGoldenScript(cfailEvery, horizon int) string {
	script := "crash@4000:3,crash@12000:7,recover@15000:3,crash@21000:11,recover@27000:7," +
		"crash@33000:3,recover@40000:11,crash@50000:15,recover@60000:3,recover@70000:15," +
		"crash@80000:1,recover@100000:1"
	for at := cfailEvery; at <= horizon; at += cfailEvery {
		script += ",cfail@" + strconv.Itoa(at)
	}
	return script
}

// susGoldenShape is one workload of the golden.
type susGoldenShape struct {
	name       string
	tasks      int
	gap        int64 // NextTaskMaxInterval
	cfailEvery int
	horizon    int
}

// susGoldenShapes are the golden's workloads. The overloaded one keeps
// a deep queue, so expiries and mid-walk re-queues happen at depth;
// the moderate one keeps the queue short, so faults often strike the
// retry of the queue's newest task — the one case where a re-queued
// task is not reached again by the walk that re-queued it.
var susGoldenShapes = []susGoldenShape{
	{name: "overloaded", tasks: 3000, gap: 50, cfailEvery: 1500, horizon: 150000},
	{name: "moderate", tasks: 1500, gap: 400, cfailEvery: 700, horizon: 600000},
}

// susGoldenEntry is one reconfiguration mode's fixture: the full
// report plus a digest of the lifecycle event stream.
type susGoldenEntry struct {
	Report   metrics.Report
	Counters metrics.Counters
	Phases   map[string]int64
	// Events is the SHA-256 over every OnEvent call's kind, tick,
	// task number and SusRetry value, in emission order.
	Events string
	// NEvents counts the hashed events, so a drift in volume reads
	// directly off the diff.
	NEvents int
}

// susGoldenCoverage counts the retry-path situations the fixture is
// meant to pin, so the golden can never pass vacuously.
type susGoldenCoverage struct {
	expired      int // discards past MaxSusRetries
	resuspended  int // crash victims suspended again with a non-zero count
	walkFailures int // reconfiguration faults on previously queued tasks
	revisits     int // tasks re-queued mid-walk and placed later in that walk
}

func runSusGolden(t *testing.T, shape susGoldenShape, partial bool) (susGoldenEntry, susGoldenCoverage) {
	t.Helper()
	script, err := fault.ParseScript(susGoldenScript(shape.cfailEvery, shape.horizon))
	if err != nil {
		t.Fatal(err)
	}
	p := smallParams(20, shape.tasks, partial)
	p.Spec.NextTaskMaxInterval = shape.gap
	p.Seed = 4242
	p.MaxSusRetries = 3
	p.Faults = fault.Plan{Script: script}
	p.Retry = fault.RetryPolicy{Budget: 3, BackoffBase: 16, BackoffCap: 256}

	h := sha256.New()
	var buf [8 * 4]byte
	var cov susGoldenCoverage
	n := 0
	faultAt := map[int][2]int64{} // task -> tick, SusRetry of its last reconfig fault
	p.OnEvent = func(kind string, now int64, task *model.Task) {
		n++
		h.Write([]byte(kind))
		binary.LittleEndian.PutUint64(buf[0:], uint64(len(kind)))
		binary.LittleEndian.PutUint64(buf[8:], uint64(now))
		binary.LittleEndian.PutUint64(buf[16:], uint64(int64(task.No)))
		binary.LittleEndian.PutUint64(buf[24:], uint64(task.SusRetry))
		h.Write(buf[:])
		switch {
		case kind == "discard" && task.SusRetry > p.MaxSusRetries:
			cov.expired++
		case kind == "suspend" && task.Retries > 0 && task.SusRetry > 0:
			cov.resuspended++
		case kind == "reconfig-fault" && task.SusRetry > 0:
			cov.walkFailures++
			faultAt[task.No] = [2]int64{now, task.SusRetry}
		case kind == "place":
			if f, ok := faultAt[task.No]; ok && f[0] == now && task.SusRetry == f[1]+1 {
				cov.revisits++
			}
		}
	}
	res := mustRun(t, p)
	return susGoldenEntry{
		Report:   res.Report,
		Counters: res.Counters,
		Phases:   res.Phases,
		Events:   hex.EncodeToString(h.Sum(nil)),
		NEvents:  n,
	}, cov
}

// TestSuspensionRetryGolden pins the suspension-retry path end to end
// in the regimes where it is hardest to get right: 20-node Table II
// workloads (overloaded and moderately loaded) with a retry cap
// (tasks expire out of the queue), reconfiguration faults striking
// retry placements (tasks re-enter the queue mid-walk) and crashes
// whose victims re-suspend with non-zero retry counts. The fixture
// holds each workload's Table I report, raw counters, phase census
// and a digest of the whole lifecycle event stream including each
// event's SusRetry value, in both reconfiguration modes. It was captured from the linear
// queue walk and must never be regenerated to absorb a change in
// the retry path: any difference is a behaviour change.
//
//	DREAMSIM_UPDATE_GOLDEN=1 go test -run TestSuspensionRetryGolden ./internal/core/
func TestSuspensionRetryGolden(t *testing.T) {
	got := map[string]susGoldenEntry{}
	for _, shape := range susGoldenShapes {
		for _, partial := range []bool{false, true} {
			mode := shape.name + "/full"
			if partial {
				mode = shape.name + "/partial"
			}
			entry, cov := runSusGolden(t, shape, partial)
			// Full-mode retries only ever configure blank (recovered)
			// nodes, so a re-queued task never finds room later in the
			// same walk; the overloaded partial run is the one that must
			// show it.
			if cov.expired == 0 || cov.resuspended == 0 || cov.walkFailures == 0 ||
				(partial && shape.name == "overloaded" && cov.revisits == 0) {
				t.Fatalf("%s: fixture workload no longer exercises the retry path: %+v", mode, cov)
			}
			got[mode] = entry
		}
	}
	blob, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	blob = append(blob, '\n')

	golden := filepath.Join("testdata", "sus_golden.json")
	if os.Getenv("DREAMSIM_UPDATE_GOLDEN") == "1" {
		if err := os.WriteFile(golden, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden updated: %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden fixture: %v", err)
	}
	if !bytes.Equal(blob, want) {
		t.Fatalf("suspension-retry run drifted from golden fixture.\n--- got ---\n%s\n--- want ---\n%s", blob, want)
	}
}
