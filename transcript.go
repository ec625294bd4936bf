package ist

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"

	"ist/internal/oracle"
)

// Interaction transcripts: record real sessions for auditing, reproduce
// them deterministically later (same algorithm, same seed).

// Transcript is an ordered record of question/answer exchanges.
type Transcript = oracle.Transcript

// RecordingOracle wraps an oracle and records every exchange.
type RecordingOracle = oracle.RecordingOracle

// ReplayOracle answers questions from a saved transcript.
type ReplayOracle = oracle.ReplayOracle

// NewRecordingOracle wraps inner with transcript recording.
func NewRecordingOracle(inner Oracle) *RecordingOracle {
	return oracle.NewRecordingOracle(inner)
}

// NewReplayOracle answers from a transcript; pair with the same algorithm
// and seed that produced it.
func NewReplayOracle(t *Transcript) *ReplayOracle { return oracle.NewReplayOracle(t) }

// LoadTranscript reads a JSON transcript.
func LoadTranscript(r io.Reader) (*Transcript, error) { return oracle.LoadTranscript(r) }

// ResumeSession rebuilds an in-flight interactive session by replaying a
// recorded answer log (Session.AnswerLog, or Transcript.Answers) through a
// freshly constructed algorithm. The algorithm must be the same kind with
// the same seed over the same points as the one that produced the log —
// deterministic algorithms then re-ask exactly the recorded questions, so
// only the answers need to be stored. It returns an error if the replay
// diverges (the algorithm finishes or fails before the log is exhausted);
// the partially replayed session is closed in that case.
//
// This is the crash-recovery primitive behind the HTTP server's session
// store: persist (algorithm, seed, answers), and after a restart resume
// every in-flight session without re-asking the user anything.
//
// The options are those of NewSession. Budget checks consume no randomness,
// so a budgeted algorithm re-asks exactly the questions an unbudgeted one
// would — recorded answer logs replay cleanly across both.
func ResumeSession(alg Algorithm, points []Point, k int, answers []bool, opts ...Option) (*Session, error) {
	s := NewSession(alg, points, k, opts...)
	for i, ans := range answers {
		if _, _, done := s.Next(); done {
			err := s.Err()
			s.Close()
			if err == nil {
				err = fmt.Errorf("ist: replay diverged: algorithm finished after %d of %d recorded answers", i, len(answers))
			}
			return nil, err
		}
		if err := s.Answer(ans); err != nil {
			s.Close()
			return nil, fmt.Errorf("ist: replay failed at answer %d of %d: %w", i+1, len(answers), err)
		}
	}
	return s, nil
}

// Fingerprint hashes a point set and k into a stable identifier. A replayed
// answer log is only meaningful against the exact data it was recorded on;
// persisting the fingerprint next to the log lets a restarted service refuse
// to resume sessions against a different (re-generated, re-ordered, or
// re-parameterized) dataset instead of silently diverging.
func Fingerprint(points []Point, k int) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(k))
	h.Write(buf[:])
	for _, p := range points {
		binary.LittleEndian.PutUint64(buf[:], uint64(len(p)))
		h.Write(buf[:])
		for _, v := range p {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}
