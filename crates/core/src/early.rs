//! Streaming consumption of early, correct results.
//!
//! §6: "we will research integrating SIDR's ability to produce early,
//! orderable, correct results for portions of the total output into
//! pipe-lined computations." This module implements that integration
//! point: an [`OutputCollector`] that forwards each committed keyblock
//! through a channel the moment it lands, so a downstream consumer
//! processes portions of the output while the rest of the query is
//! still running — no re-execution, because SIDR's partial results are
//! final (§5's contrast with HOP's estimates).

use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};

use sidr_coords::Coord;
use sidr_mapreduce::{MrError, OutputCollector};

/// One committed keyblock, delivered as soon as its Reduce task
/// finished.
#[derive(Clone, Debug)]
pub struct EarlyResult {
    /// The keyblock / reducer that committed.
    pub reducer: usize,
    /// Time since the collector was created.
    pub at: Duration,
    /// The keyblock's complete, final output.
    pub records: Vec<(Coord, f64)>,
}

/// The sending half: plugs into the engine as the job's
/// [`OutputCollector`].
pub struct StreamingOutput {
    start: Instant,
    tx: Sender<EarlyResult>,
}

/// Creates a connected (collector, consumer) pair. A dropped consumer
/// fails the next commit (and the job with it).
pub fn streaming_output() -> (StreamingOutput, Receiver<EarlyResult>) {
    let (tx, rx) = unbounded();
    (
        StreamingOutput {
            start: Instant::now(),
            tx,
        },
        rx,
    )
}

impl OutputCollector<Coord, f64> for StreamingOutput {
    fn commit(&self, reducer: usize, records: Vec<(Coord, f64)>) -> sidr_mapreduce::Result<()> {
        self.tx
            .send(EarlyResult {
                reducer,
                at: self.start.elapsed(),
                records,
            })
            .map_err(|_| {
                MrError::Output("early-result consumer hung up before the job finished".into())
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_stream_in_commit_order() {
        let (out, rx) = streaming_output();
        out.commit(2, vec![(Coord::from([2]), 2.0)]).unwrap();
        out.commit(0, vec![(Coord::from([0]), 0.0)]).unwrap();
        drop(out);
        let got: Vec<usize> = rx.iter().map(|r| r.reducer).collect();
        assert_eq!(got, vec![2, 0]);
    }

    #[test]
    fn dropped_consumer_fails_the_commit() {
        let (out, rx) = streaming_output();
        drop(rx);
        assert!(out.commit(0, vec![]).is_err());
    }
}
