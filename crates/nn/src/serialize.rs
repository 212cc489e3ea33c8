use crate::dense::Dense;
use crate::NnError;

/// A capture of an [`crate::Mlp`]'s weights, as a sequence of tagged layers.
///
/// Snapshots pair with [`crate::Mlp::snapshot`] /
/// [`crate::Mlp::load_snapshot`]: the architecture itself is rebuilt in
/// code (construction needs RNGs and dimensions), the snapshot carries only
/// the learned state plus enough structure to detect mismatches. Each dense
/// layer is a `("dense", [weights, bias])` entry, and a `("relu", [])` entry
/// sits between consecutive dense layers.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkSnapshot {
    layers: Vec<LayerSnapshot>,
}

#[derive(Debug, Clone, PartialEq)]
struct LayerSnapshot {
    kind: String,
    buffers: Vec<Vec<f32>>,
}

impl NetworkSnapshot {
    pub(crate) fn capture<'a>(layers: impl Iterator<Item = &'a Dense>) -> Self {
        let mut parts = Vec::new();
        for (index, layer) in layers.enumerate() {
            if index > 0 {
                parts.push(LayerSnapshot {
                    kind: "relu".to_owned(),
                    buffers: Vec::new(),
                });
            }
            parts.push(LayerSnapshot {
                kind: "dense".to_owned(),
                buffers: layer.params().map(<[f32]>::to_vec).into(),
            });
        }
        NetworkSnapshot { layers: parts }
    }

    /// Checks the whole snapshot against `layers` first, then copies, so a
    /// mismatch leaves the network unchanged.
    pub(crate) fn restore(&self, layers: &mut [&mut Dense]) -> Result<(), NnError> {
        let mismatch = |detail: String| NnError::SnapshotMismatch { detail };
        let expected = 2 * layers.len() - 1;
        if self.layers.len() != expected {
            return Err(mismatch(format!(
                "network has {expected} layers, snapshot has {}",
                self.layers.len()
            )));
        }
        for (index, snap) in self.layers.iter().enumerate() {
            let (kind, lengths) = if index % 2 == 0 {
                let [w, b] = layers[index / 2].params();
                ("dense", vec![w.len(), b.len()])
            } else {
                ("relu", Vec::new())
            };
            if snap.kind != kind {
                return Err(mismatch(format!(
                    "layer {index} kind {kind} vs snapshot {}",
                    snap.kind
                )));
            }
            let found: Vec<usize> = snap.buffers.iter().map(Vec::len).collect();
            if found != lengths {
                return Err(mismatch(format!(
                    "{kind} layer {index}: buffer lengths {lengths:?}, snapshot has {found:?}"
                )));
            }
        }
        for (layer, snap) in layers.iter_mut().zip(self.layers.iter().step_by(2)) {
            for (param, buffer) in layer.params_mut().into_iter().zip(&snap.buffers) {
                param.copy_from_slice(buffer);
            }
        }
        Ok(())
    }

    /// Layer kinds and parameter buffers in network order, for external
    /// serialisers (e.g. the binary checkpoint codec).
    pub fn layer_parts(&self) -> impl Iterator<Item = (&str, &[Vec<f32>])> {
        self.layers
            .iter()
            .map(|l| (l.kind.as_str(), l.buffers.as_slice()))
    }

    /// Rebuilds a snapshot from `(kind, buffers)` parts as produced by
    /// [`Self::layer_parts`]. Structural validation still happens at
    /// [`crate::Mlp::load_snapshot`] time.
    pub fn from_layer_parts(parts: Vec<(String, Vec<Vec<f32>>)>) -> Self {
        NetworkSnapshot {
            layers: parts
                .into_iter()
                .map(|(kind, buffers)| LayerSnapshot { kind, buffers })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{InitRng, Matrix, Mlp};

    fn net() -> Mlp {
        let mut rng = InitRng::seeded(2, 0.3);
        Mlp::new(&[3, 5, 2], &mut rng)
    }

    #[test]
    fn layer_parts_are_dense_relu_dense() {
        let snap = net().snapshot();
        let parts: Vec<(&str, Vec<usize>)> = snap
            .layer_parts()
            .map(|(kind, buffers)| (kind, buffers.iter().map(Vec::len).collect()))
            .collect();
        assert_eq!(
            parts,
            vec![
                ("dense", vec![15, 5]),
                ("relu", vec![]),
                ("dense", vec![10, 2]),
            ]
        );
    }

    #[test]
    fn layer_parts_round_trip() {
        let snap = net().snapshot();
        let parts: Vec<(String, Vec<Vec<f32>>)> = snap
            .layer_parts()
            .map(|(kind, buffers)| (kind.to_owned(), buffers.to_vec()))
            .collect();
        assert_eq!(NetworkSnapshot::from_layer_parts(parts), snap);
    }

    #[test]
    fn restore_into_same_architecture() {
        let original = net();
        let snap = original.snapshot();
        let mut clone = net();
        clone.load_snapshot(&snap).unwrap();
        let x = Matrix::from_rows(&[vec![0.5, -0.5, 1.0]]).unwrap();
        assert_eq!(original.infer(&x), clone.infer(&x));
    }

    #[test]
    fn mismatched_snapshot_leaves_the_network_unchanged() {
        let snap = net().snapshot();
        let parts: Vec<(String, Vec<Vec<f32>>)> = snap
            .layer_parts()
            .map(|(kind, buffers)| (kind.to_owned(), buffers.to_vec()))
            .collect();
        let x = Matrix::from_rows(&[vec![0.5, -0.5, 1.0]]).unwrap();
        let mut target = Mlp::new(&[3, 5, 2], &mut InitRng::seeded(7, 0.3));
        let before = target.infer(&x);

        let mut short_bias = parts.clone();
        short_bias[2].1[1].pop();
        let mut relu_with_params = parts.clone();
        relu_with_params[1].1.push(vec![1.0]);
        let mut renamed = parts.clone();
        renamed[1].0 = "dense".to_owned();
        for bad in [short_bias, relu_with_params, renamed, parts[..1].to_vec()] {
            let bad = NetworkSnapshot::from_layer_parts(bad);
            assert!(matches!(
                target.load_snapshot(&bad),
                Err(NnError::SnapshotMismatch { .. })
            ));
            assert_eq!(target.infer(&x), before);
        }
    }
}
