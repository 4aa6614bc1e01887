package webapi

import (
	"fmt"
	"net/http"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
)

// Cluster wiring: with a queue attached (AttachCluster), the server
// doubles as the fleet's coordinator front-end. Jobs submitted with
// "cluster": true are routed through the durable chunk queue instead
// of trained in-process: workers lease and train the chunks, the
// server waits, assembles the bitwise-identical synthesizer, and then
// persists/serves the result exactly like a local job.
//
//	GET  /api/v1/cluster               queue status: workers + jobs
//	POST /api/v1/cluster/workers/{id}  worker registration/heartbeat
//
// Workers heartbeat either directly against the shared queue directory
// or over this API (cmd/netshare -coordinator-url), which writes
// through to the same per-worker record.

// AttachCluster routes cluster jobs and the cluster endpoints through
// q. Safe to call before serving; pass nil to detach.
func (s *Server) AttachCluster(q *cluster.Queue) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.clusterQ = q
}

func (s *Server) clusterQueue() *cluster.Queue {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.clusterQ
}

// handleCluster serves the fleet snapshot: registered workers and the
// queue's per-job, per-chunk state.
func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	q := s.clusterQueue()
	if q == nil {
		writeError(w, http.StatusNotFound, "no cluster queue attached")
		return
	}
	workers, err := q.Workers()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "list workers: %v", err)
		return
	}
	jobs, err := q.Statuses()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "list jobs: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"dir":     q.Dir(),
		"workers": workers,
		"jobs":    jobs,
	})
}

// handleWorkerHeartbeat registers a worker (or refreshes its liveness)
// through the API; the record lands in the same queue directory a
// co-located worker writes directly.
func (s *Server) handleWorkerHeartbeat(w http.ResponseWriter, r *http.Request) {
	q := s.clusterQueue()
	if q == nil {
		writeError(w, http.StatusNotFound, "no cluster queue attached")
		return
	}
	if err := q.Heartbeat(r.PathValue("id")); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// clusterSpec translates an API job request into a durable queue spec.
func (s *Server) clusterSpec(id string, req JobRequest, cfg core.Config) cluster.JobSpec {
	return cluster.JobSpec{
		ID:            id,
		Kind:          req.Kind,
		Dataset:       req.Dataset,
		Records:       req.Records,
		DatasetSeed:   1, // the same fixed preset seed the local path uses
		CSV:           req.CSV,
		PublicPackets: s.publicPackets,
		MaxRetries:    req.MaxRetries,
		Config:        cfg,
	}
}

// clusterTrainer routes the job through the attached queue: submit the
// spec, mirror worker progress into the job status until the queue
// reports the job done, then assemble the synthesizer.
func (s *Server) clusterTrainer(id string, req JobRequest, cfg core.Config) trainer {
	train := func() (*cluster.Coordinator, error) {
		q := s.clusterQueue()
		if q == nil {
			return nil, fmt.Errorf("cluster queue detached")
		}
		coord := &cluster.Coordinator{Queue: q}
		if err := coord.Submit(s.clusterSpec(id, req, cfg)); err != nil {
			return nil, err
		}
		return coord, s.waitCluster(id, coord)
	}
	return trainer{
		flow: func() (*core.FlowSynthesizer, error) {
			coord, err := train()
			if err != nil {
				return nil, err
			}
			return coord.AssembleFlow(id)
		},
		packet: func() (*core.PacketSynthesizer, error) {
			coord, err := train()
			if err != nil {
				return nil, err
			}
			return coord.AssemblePacket(id)
		},
	}
}

// waitCluster polls the queue until the job finishes, mirroring the
// queue's per-chunk state into the job's live status.
func (s *Server) waitCluster(id string, coord *cluster.Coordinator) error {
	for {
		st, err := coord.Queue.Status(id)
		if err != nil {
			return err
		}
		s.mirrorClusterChunks(id, st.Chunks)
		switch st.State {
		case "done":
			return nil
		case "failed":
			return fmt.Errorf("cluster job failed: %s", st.Error)
		}
		time.Sleep(clusterPoll)
	}
}

// clusterPoll is the queue-status poll interval for cluster jobs.
const clusterPoll = 250 * time.Millisecond

// mirrorClusterChunks maps queue chunk states onto the job's ChunkInfo.
func (s *Server) mirrorClusterChunks(id string, chunks []cluster.ChunkStatus) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil || len(chunks) != len(j.status.Chunks) {
		return
	}
	for i, c := range chunks {
		info := &j.status.Chunks[i]
		info.Attempts = c.Attempts
		switch c.State {
		case "done":
			info.State = ChunkDone
		case "leased":
			if c.Attempts > 1 {
				info.State = ChunkRetrying
			} else {
				info.State = ChunkTraining
			}
		default:
			if c.Attempts > 0 {
				info.State = ChunkRetrying
			} else {
				info.State = ChunkPending
			}
		}
	}
}
