//! Correctness checks the benchmark applies to the program's outputs.

use cts_obs::serve::ServeCounters;
use cts_tensor::Tensor;

/// The serving counters' conservation invariant: every request offered
/// to a batcher is admitted, rejected at admission, or shed at the queue.
pub fn conservation(c: &ServeCounters) -> Result<(), String> {
    let accounted =
        c.admitted + c.rejected_shape + c.rejected_non_finite + c.rejected_missing + c.queue_shed;
    if c.submitted == accounted {
        Ok(())
    } else {
        Err(format!(
            "serve counters break conservation: submitted {} != admitted {} + rejected \
             {}/{}/{} + queue_shed {}",
            c.submitted,
            c.admitted,
            c.rejected_shape,
            c.rejected_non_finite,
            c.rejected_missing,
            c.queue_shed
        ))
    }
}

/// A forecast must have the plan's output shape and only finite values.
pub fn forecast(y: &Tensor, want: &[usize]) -> Result<(), String> {
    if y.shape() != want {
        return Err(format!("forecast shape {:?}, want {want:?}", y.shape()));
    }
    if let Some(i) = y.data().iter().position(|v| !v.is_finite()) {
        return Err(format!("forecast value {i} is {}", y.data()[i]));
    }
    Ok(())
}

/// Exact bit patterns of a tensor's values.
pub fn bits(y: &Tensor) -> Vec<u32> {
    y.data().iter().map(|v| v.to_bits()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conservation_accepts_a_balanced_snapshot() {
        let c = ServeCounters {
            submitted: 10,
            admitted: 6,
            rejected_shape: 1,
            rejected_non_finite: 1,
            rejected_missing: 1,
            queue_shed: 1,
            cache_hit: 4,
            ..ServeCounters::default()
        };
        assert!(conservation(&c).is_ok());
    }

    #[test]
    fn conservation_rejects_a_lost_request() {
        let c = ServeCounters {
            submitted: 10,
            admitted: 8,
            queue_shed: 1,
            ..ServeCounters::default()
        };
        let err = conservation(&c).unwrap_err();
        assert!(err.contains("submitted 10"), "{err}");
    }

    #[test]
    fn forecast_check_rejects_shape_and_non_finite() {
        let ok = Tensor::zeros([1, 2, 3]);
        assert!(forecast(&ok, &[1, 2, 3]).is_ok());
        assert!(forecast(&ok, &[1, 3, 2]).is_err());
        let mut bad = Tensor::zeros([1, 2, 3]);
        bad.data_mut()[4] = f32::NAN;
        assert!(forecast(&bad, &[1, 2, 3]).is_err());
    }
}
