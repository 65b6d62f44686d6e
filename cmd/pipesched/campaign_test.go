package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"testing"

	"pipesched/internal/campaign"
	"pipesched/internal/server"
)

// TestRunCampaignInProcessAndHTTP compiles the kernel programs once in
// process and once through a live front door (-http): both runs exit 0
// and deliver the same NOPs, program by program.
func TestRunCampaignInProcessAndHTTP(t *testing.T) {
	srv := server.New(server.Config{})
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	run := func(extra ...string) campaign.Report {
		t.Helper()
		var stdout, stderr bytes.Buffer
		args := append([]string{"-dir", "../../examples/kernels/programs", "-json"}, extra...)
		if code := runCampaign(context.Background(), args, &stdout, &stderr); code != 0 {
			t.Fatalf("campaign %v: exit %d (stderr: %s)", extra, code, stderr.String())
		}
		var rep campaign.Report
		if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
			t.Fatalf("campaign %v: report: %v", extra, err)
		}
		return rep
	}
	local, remote := run(), run("-http", hs.URL)

	if local.TotalTraces == 0 || remote.TotalTraces != local.TotalTraces || len(remote.Programs) != len(local.Programs) {
		t.Fatalf("traces: in process %d over %d programs, via -http %d over %d",
			local.TotalTraces, len(local.Programs), remote.TotalTraces, len(remote.Programs))
	}
	for i, l := range local.Programs {
		r := remote.Programs[i]
		if r.Name != l.Name || r.Traces != l.Traces || r.DeliveredNOPs != l.DeliveredNOPs || r.BaselineNOPs != l.BaselineNOPs {
			t.Errorf("program %s: via -http %+v, in process %+v", l.Name, r, l)
		}
	}
	if remote.Compile.Requests == 0 {
		t.Error("the -http run sent no requests to the front door")
	}
}
