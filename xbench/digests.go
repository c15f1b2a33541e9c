package main

// committedDigests pin each workload's checked result at the default seed
// and full size: the SHA-256 prefix of xentry-report's text without its
// timing line, or of a campaign report's canonical JSON (campaign-smp-recover:
// of its parts' digests, one per line). campaign-gpr and fleet-wal run one
// campaign identity, so they share a digest.
var committedDigests = map[string]string{
	"paper-report":         "4529f07464357f4ddda6548d",
	"campaign-gpr":         "c41e782a2128b0de1c35ca91",
	"campaign-smp-recover": "f89502e1e467e1a30394b5ee",
	"fleet-wal":            "c41e782a2128b0de1c35ca91",
}
