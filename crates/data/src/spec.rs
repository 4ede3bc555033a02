//! Dataset metadata matching the paper's Table 3.

/// One row of the paper's Table 3 (training datasets).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DatasetSpec {
    /// Dataset name.
    pub name: &'static str,
    /// Number of training samples (`None` where the paper lists N/A).
    pub samples: Option<u64>,
    /// Human-readable sample-size description.
    pub size: &'static str,
    /// The paper's "Special" column.
    pub special: &'static str,
}

/// The six datasets of Table 3, in the paper's order.
pub const TABLE3: [DatasetSpec; 6] = [
    DatasetSpec {
        name: "ImageNet1K",
        samples: Some(1_200_000),
        size: "3x256x256 per image",
        special: "N/A",
    },
    DatasetSpec {
        name: "IWSLT15",
        samples: Some(133_000),
        size: "20-30 words long per sentence",
        special: "vocabulary size of 17188",
    },
    DatasetSpec {
        name: "Pascal VOC 2007",
        samples: Some(5011),
        size: "around 500x350",
        special: "12608 annotated objects",
    },
    DatasetSpec {
        name: "LibriSpeech",
        samples: Some(280_000),
        size: "1000 hours",
        special: "100-hour training subset",
    },
    DatasetSpec {
        name: "Downsampled ImageNet",
        samples: Some(1_200_000),
        size: "3x64x64 per image",
        special: "N/A",
    },
    DatasetSpec { name: "Atari 2600", samples: None, size: "4x84x84 per image", special: "N/A" },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_has_six_rows() {
        assert_eq!(TABLE3.len(), 6);
        assert_eq!(TABLE3[0].name, "ImageNet1K");
        assert_eq!(TABLE3[1].special, "vocabulary size of 17188");
        assert_eq!(TABLE3[5].samples, None);
    }

    #[test]
    fn sample_counts_match_paper() {
        assert_eq!(TABLE3[0].samples, Some(1_200_000));
        assert_eq!(TABLE3[2].samples, Some(5011));
    }
}
