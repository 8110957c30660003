package abenet_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"abenet"
	"abenet/internal/probe"
	"abenet/internal/simtime"
	"abenet/internal/spec"
	"abenet/internal/trace"
)

// registryScenario is one pinned deterministic scenario of the registry.
type registryScenario struct {
	name  string
	env   abenet.Env
	proto abenet.Protocol
	// report is the sha256 of json.Marshal(Report); metrics is the sha256
	// of json.Marshal(Report.Metrics()) (map keys marshal sorted).
	report, metrics string
}

// registryScenarios covers every deterministic protocol of the registry —
// plain elections, the comparison baselines, the synchronizers, consensus,
// the fault- and adversary-injected golden runs, and observed/traced runs.
func registryScenarios() []registryScenario {
	faultEnv, faultProto := goldenFaultEnv()
	byzEnv, byzProto := goldenByzantineEnv()
	return []registryScenario{
		{"election", abenet.Env{N: 10, Seed: 7}, abenet.Election{},
			"2cbf6b7ebf1d881c6d40b09f060bce2f57820db8985be6a4c01d99885103c47b",
			"da36a3c6bc6dc0e8e11925ce6f624937efdac4ae3d4aee03b8e326f6fc5689d3"},
		{"election/observed", abenet.Env{N: 8, Seed: 3,
			Observe: &probe.Config{EveryEvents: 2, Interval: 0.5}}, abenet.Election{},
			"358cd65cbf08f08fb687f8338bf920b9a27b92fb0672737d0bb6ae7105a5965a",
			"c630352507cd1356f4676f1195d9333d3ebafe1b082510821793b4b170fe152d"},
		{"election/traced", abenet.Env{N: 6, Seed: 5,
			Trace: &trace.Config{}}, abenet.Election{},
			"6f69ec6f3ab5f8285980287620c39a96e19e1d04f8cf8ed0014ce4832a3066d1",
			"1471ce02ad4de524eb3dfb015a2f4e705e62c304434a60e1fc36a0c8ed20e482"},
		{"election/faults", faultEnv, faultProto,
			"7ee751b357852d766c7a04bac5a34540d4e8d000a63e18a43af8fdff508edcb2",
			"ed31d037671f3f8a5405194d184dfb4ddfe448698591da30e0dd79ef0572fb68"},
		{"ben-or/byzantine", byzEnv, byzProto,
			"f47c64621426cfc34e68edb81fc8f723e29fdba5b84b4cd95eb4b769beb7d5be",
			"5d269c25050f6a716480c650fc6c60d95bf2d6f0a9a98d91ef412addad56c731"},
		{"chang-roberts", abenet.Env{N: 16, Seed: 11}, abenet.ChangRoberts{},
			"3dcca8c44464ff955508a3b11366a19bb780946dddf1f4a3369ecdb5c144a9f0",
			"8a8cbbfbda9ebd9286ea2c2aee860e923b001906aa238084b91f8a67bca4bbac"},
		{"peterson", abenet.Env{N: 16, Seed: 13}, abenet.Peterson{},
			"b7653cdb4c28183bf256959d106fd28947792ac73f8f761625a80a95e77805ab",
			"a193ec692b260636b560ff80658dfad5639b0f6cfea02c9a108df57bf2172e32"},
		{"itai-rodeh-async", abenet.Env{N: 8, Seed: 17}, abenet.ItaiRodehAsync{},
			"78ffc921e2519a78c32987c4c955ca7186d9d96a42af015713ff169504ba74bb",
			"cd38359929290907e5c46288b98695f2d21c81c6532d5fed0b7b71ae83f272d7"},
		{"itai-rodeh-sync", abenet.Env{N: 8, Seed: 19}, abenet.ItaiRodehSync{},
			"0dc0dd34660797a2c984b951c263dd8ae3fb31185247678a0304ac950cbbc8f8",
			"2903de080f973fd414f9483dd809b774602f4bfa0b99387dcae99cc107685582"},
		{"synchronized-election", abenet.Env{N: 8, Seed: 23}, abenet.SynchronizedElection{},
			"030d02c9777210aa83286af2f8035d0de03b5be2a7f3d7c8f48aabf839af8d29",
			"f4d110020bdf3fb9562ae30e9f1c2f82c07976169a340b1d1d9dc991f99409cd"},
		{"clock-sync", abenet.Env{N: 6, Seed: 29, MaxRounds: 40}, abenet.ClockSync{},
			"76d29531abc2b32faf8340f49729a01dc977cc305449f49f90b139ff4bc73ce7",
			"4e4793a4c960164ce9eaf7e540f6905a8d5cc307f027fe4744e1b4cc8f9eb124"},
		{"ben-or/clean", abenet.Env{N: 7, Seed: 31, MaxRounds: 60}, abenet.BenOr{Init: "half"},
			"84314e3fe23906a725671c0c8ca56715f15babfd3592e463dd2705ebf0a33a41",
			"23e7a7fb85cd03ef50603c258543ca0e84a4e8e943bb190e5a9068e428e51bb2"},
		{"election/arq-links", abenet.Env{N: 8, Seed: 37,
			Links: abenet.ARQLinks(0.5, 1), Horizon: simtime.Time(50000)}, abenet.Election{},
			"6b1cf732f58f2e34be119f5efa8caf43779bea713225ae2ca139959a12ea7bb1",
			"ea92dcfc99b8f6cdabef4e45291b3fb9f35ec84f911ac865f78623bb6bf4143c"},
		{"election/fifo-links", abenet.Env{N: 8, Seed: 41,
			Links: abenet.FIFOLinks(abenet.Exponential(1))}, abenet.Election{},
			"dbcca412dd85e3509dab8c5e6f2130918d464e7d5c5b28cf758d4c9fd19a6a12",
			"457b290c926fa7d11da9066acca1a45e122b726872068bd05b3747b4d173284a"},
	}
}

// digest is the hex sha256 of v's JSON encoding. JSON flattens every
// pointer field (fault telemetry, series, trace) to content and renders
// each float's shortest exact representation, so equal digests mean equal
// values down to float bit patterns.
func digest(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestSchedulerDifferentialDeterminism pins the kernel's (time, seq) event
// order end to end: every deterministic registry scenario must reproduce
// the Report bytes and the Metrics() map recorded when a second (calendar)
// scheduler was still checked differentially against the heap. A
// divergence means the kernel reordered same-instant events or the run
// pipeline changed what a protocol reports — either silently invalidates
// every golden pin, so a literal here changes only with an explanation in
// the same commit.
func TestSchedulerDifferentialDeterminism(t *testing.T) {
	for _, sc := range registryScenarios() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			rep, err := abenet.Run(sc.env, sc.proto)
			if err != nil {
				t.Fatal(err)
			}
			if got := digest(t, rep); got != sc.report {
				t.Errorf("report digest %s, pinned %s\nreport: %+v", got, sc.report, rep)
			}
			if got := digest(t, rep.Metrics()); got != sc.metrics {
				t.Errorf("metrics digest %s, pinned %s\nmetrics: %v", got, sc.metrics, rep.Metrics())
			}
		})
	}
}

// TestSchedulerFieldSpecHashStable pins that env.scheduler stays outside
// scenario identity: a spec with the field set hashes identically to the
// same spec without it, so stored specs naming a scheduler keep their
// result-store keys.
func TestSchedulerFieldSpecHashStable(t *testing.T) {
	base := []byte(`{"version":1,"env":{"n":8,"seed":5},"protocol":{"name":"election"}}`)
	withSched := []byte(`{"version":1,"env":{"n":8,"seed":5,"scheduler":"calendar"},"protocol":{"name":"election"}}`)

	hash := func(raw []byte) string {
		s, err := spec.DecodeBytes(raw)
		if err != nil {
			t.Fatal(err)
		}
		h, err := s.Hash()
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	a, b := hash(base), hash(withSched)
	if a != b {
		t.Fatalf("env.scheduler changed the spec hash: %s vs %s", a, b)
	}
}
