//! The output gate: digests of what the system under test answered and
//! of the state it ended in, compared with a plain in-process engine
//! fed the same batches.

use hom_core::fnv1a;
use hom_serve::{Request, Response, StreamId};

/// A running FNV-1a digest over every response's stream and prediction,
/// chained batch to batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResponseDigest(u64);

impl ResponseDigest {
    pub fn fold(&mut self, responses: &[Response]) {
        let mut bytes = Vec::with_capacity(8 + 12 * responses.len());
        bytes.extend_from_slice(&self.0.to_le_bytes());
        for r in responses {
            bytes.extend_from_slice(&r.stream.to_le_bytes());
            bytes.extend_from_slice(&r.prediction.unwrap_or(u32::MAX).to_le_bytes());
        }
        self.0 = fnv1a(&bytes);
    }
}

/// Check a response batch's shape against its requests: one response
/// per request, same stream, a prediction exactly where one was asked.
pub fn check_shape(requests: &[Request], responses: &[Response]) -> Result<(), String> {
    if requests.len() != responses.len() {
        return Err(format!(
            "{} responses for {} requests",
            responses.len(),
            requests.len()
        ));
    }
    for (q, r) in requests.iter().zip(responses) {
        let predicts = matches!(q, Request::Predict { .. } | Request::Step { .. });
        if q.stream() != r.stream || predicts != r.prediction.is_some() {
            return Err(format!("response {r:?} does not answer {q:?}"));
        }
    }
    Ok(())
}

/// FNV-1a over the bits of every stream's posterior, streams in id
/// order — the digest `examples/cluster_smoke.rs` prints.
pub fn posterior_digest(
    streams: u64,
    posterior: impl Fn(StreamId) -> Option<Vec<f64>>,
) -> Result<u64, String> {
    let mut bytes = Vec::new();
    for stream in 0..streams {
        let p = posterior(stream).ok_or(format!("stream {stream} has no state"))?;
        for v in p {
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }
    Ok(fnv1a(&bytes))
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use hom_classifiers::MajorityClassifier;
    use hom_core::{Concept, HighOrderModel, TransitionStats};
    use hom_data::{Attribute, Schema};
    use hom_serve::ServeEngine;

    use super::*;

    fn model() -> Arc<HighOrderModel> {
        let schema = Schema::new(vec![Attribute::numeric("x")], ["a", "b"]);
        let concept = |id, counts: &[usize]| Concept {
            id,
            model: Arc::new(MajorityClassifier::from_counts(counts)),
            err: 0.1,
            n_records: 50,
            n_occurrences: 1,
        };
        let concepts = vec![concept(0, &[9, 1]), concept(1, &[1, 9])];
        let stats = TransitionStats::from_occurrences(2, &[(0, 50), (1, 30), (0, 20)]);
        Arc::new(HighOrderModel::from_parts(schema, concepts, stats))
    }

    fn feed(engine: &ServeEngine) -> ResponseDigest {
        let mut digest = ResponseDigest::default();
        for k in 0..20u64 {
            let batch: Vec<Request> = (0..8u64)
                .map(|s| Request::Step {
                    stream: s,
                    x: vec![(k * s) as f64],
                    y: ((k + s) % 3 == 0) as u32,
                })
                .collect();
            let responses = engine.submit(&batch);
            check_shape(&batch, &responses).expect("well-formed responses");
            digest.fold(&responses);
        }
        digest
    }

    #[test]
    fn identical_feeds_give_identical_digests() {
        let (a, b) = (ServeEngine::new(model()), ServeEngine::new(model()));
        assert_eq!(feed(&a), feed(&b));
        let digest_a = posterior_digest(8, |s| a.posterior(s)).unwrap();
        assert_eq!(digest_a, posterior_digest(8, |s| b.posterior(s)).unwrap());
        // The posterior digest sees the feed: feeding one side again moves it.
        feed(&b);
        assert_ne!(digest_a, posterior_digest(8, |s| b.posterior(s)).unwrap());
        assert!(posterior_digest(9, |s| a.posterior(s)).is_err());
    }

    #[test]
    fn shape_check_rejects_a_missing_prediction() {
        let q = [Request::Step {
            stream: 3,
            x: vec![0.0],
            y: 0,
        }];
        let ok = [Response {
            stream: 3,
            prediction: Some(1),
        }];
        let bad = [Response {
            stream: 3,
            prediction: None,
        }];
        assert!(check_shape(&q, &ok).is_ok());
        assert!(check_shape(&q, &bad).is_err());
        assert!(check_shape(&q, &[]).is_err());
    }
}
