package jobs

import (
	"errors"
	"strings"
	"testing"
)

func validSpec() Spec {
	return Spec{Flow: FlowGenerate, Circuits: []string{"s27"}}
}

func TestSpecValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Spec)
		field  string // "" means the spec must be valid
	}{
		{"valid generate", func(s *Spec) {}, ""},
		{"valid translate", func(s *Spec) { s.Flow = FlowTranslate }, ""},
		{"valid simulate sharded", func(s *Spec) {
			s.Flow = FlowSimulate
			s.Partitions = 3
			s.SeqLen = 16
		}, ""},
		{"valid multi chain generate", func(s *Spec) { s.Chains = 4 }, ""},
		{"valid budgets", func(s *Spec) {
			s.TimeoutMS = 1000
			s.MaxAttempts = 5
			s.MaxTrials = 7
			s.StopAfterPolls = 2
		}, ""},
		{"valid compact sharded", func(s *Spec) {
			s.Flow = FlowCompact
			s.SeqLen = 16
			s.OmitShards = 3
		}, ""},
		{"unknown flow", func(s *Spec) { s.Flow = "optimize" }, "flow"},
		{"empty flow", func(s *Spec) { s.Flow = "" }, "flow"},
		{"no circuits", func(s *Spec) { s.Circuits = nil }, "circuits"},
		{"unknown circuit", func(s *Spec) { s.Circuits = []string{"s27", "b17"} }, "circuits"},
		{"negative chains", func(s *Spec) { s.Chains = -1 }, "chains"},
		{"chains on translate", func(s *Spec) { s.Flow = FlowTranslate; s.Chains = 2 }, "chains"},
		{"negative workers", func(s *Spec) { s.Workers = -2 }, "workers"},
		{"bad engine", func(s *Spec) { s.Engine = "turbo" }, "engine"},
		{"negative partitions", func(s *Spec) { s.Flow = FlowSimulate; s.Partitions = -1 }, "partitions"},
		{"partitions on generate", func(s *Spec) { s.Partitions = 2 }, "partitions"},
		{"negative seq_len", func(s *Spec) { s.Flow = FlowSimulate; s.SeqLen = -5 }, "seq_len"},
		{"seq_len on generate", func(s *Spec) { s.SeqLen = 32 }, "seq_len"},
		{"negative omit_shards", func(s *Spec) { s.Flow = FlowCompact; s.OmitShards = -1 }, "omit_shards"},
		{"omit_shards on generate", func(s *Spec) { s.OmitShards = 2 }, "omit_shards"},
		{"oversized omit_shards", func(s *Spec) { s.Flow = FlowCompact; s.OmitShards = 300 }, "omit_shards"},
		{"negative timeout", func(s *Spec) { s.TimeoutMS = -1 }, "timeout_ms"},
		{"negative attempts", func(s *Spec) { s.MaxAttempts = -1 }, "max_attempts"},
		{"negative trials", func(s *Spec) { s.MaxTrials = -1 }, "max_trials"},
		{"negative polls", func(s *Spec) { s.StopAfterPolls = -1 }, "stop_after_polls"},
		{"oversized tenant", func(s *Spec) { s.Tenant = strings.Repeat("x", 65) }, "tenant"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sp := validSpec()
			tc.mutate(&sp)
			err := sp.Validate()
			if tc.field == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			var se *SpecError
			if !errors.As(err, &se) {
				t.Fatalf("Validate() = %v, want *SpecError", err)
			}
			if se.Field != tc.field {
				t.Fatalf("Validate() flagged field %q, want %q (err: %v)", se.Field, tc.field, err)
			}
		})
	}
}

func TestDecodeSpecStrict(t *testing.T) {
	cases := []struct {
		name string
		body string
		ok   bool
	}{
		{"valid", `{"flow":"generate","circuits":["s27"]}`, true},
		{"unknown field", `{"flow":"generate","circuits":["s27"],"sharding":2}`, false},
		{"typo'd field", `{"flow":"generate","circuit":["s27"]}`, false},
		{"empty body", ``, false},
		{"malformed", `{"flow":`, false},
		{"trailing data", `{"flow":"generate","circuits":["s27"]}{"x":1}`, false},
		{"invalid after decode", `{"flow":"generate","circuits":[]}`, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeSpec(strings.NewReader(tc.body))
			if tc.ok && err != nil {
				t.Fatalf("DecodeSpec(%q) = %v, want nil", tc.body, err)
			}
			if !tc.ok {
				var se *SpecError
				if !errors.As(err, &se) {
					t.Fatalf("DecodeSpec(%q) = %v, want *SpecError", tc.body, err)
				}
			}
		})
	}
}

func TestStatusValidate(t *testing.T) {
	base := func() Status {
		return Status{
			ID:    "job-0001",
			Spec:  validSpec(),
			State: StateComplete,
			Tasks: []TaskStatus{{Name: "s27", Done: true}},
		}
	}
	ok := base()
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid status rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Status)
	}{
		{"empty id", func(st *Status) { st.ID = "" }},
		{"unknown state", func(st *Status) { st.State = "paused" }},
		{"invalid spec", func(st *Status) { st.Spec.Flow = "nope" }},
		{"no tasks", func(st *Status) { st.Tasks = nil }},
		{"unnamed task", func(st *Status) { st.Tasks[0].Name = "" }},
		{"failed without error", func(st *Status) { st.State = StateFailed }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := base()
			tc.mutate(&st)
			var se *SpecError
			if err := st.Validate(); !errors.As(err, &se) {
				t.Fatalf("Validate() = %v, want *SpecError", err)
			}
		})
	}
}
