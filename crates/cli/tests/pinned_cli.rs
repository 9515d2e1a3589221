//! Every `nbc` command, and per command every flag it reads, pinned to the
//! bytes the binary printed before the flag table replaced the five
//! hand-written flag loops: exit code, `Fp128` of stdout, `Fp128` of
//! stderr's first line (skipped for `--progress`, whose lines carry a
//! wall-clock rate, and for usage errors, whose wording is not a
//! contract) and `Fp128` of every file the command wrote.
//!
//! The lines run in order in one scratch directory, so a later line can
//! read what an earlier one wrote (`--counterexample` then `--schedule`,
//! `--trace` then `nbc trace`). `$S` is the repository's `specs/`.
//!
//! A mismatch prints the whole table as the binary produces it now.

use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

use nbc_core::Fp128;

/// `exit stdout stderr-line-1 files $ command line`.
const PINNED: &str = "\
0 dd4fdb85d36d47a807909ea4b0b7ba66 - - $ list
0 2695037d4dd353a41ef982a03b113e8e - - $ analyze central-2pc
0 7c95a7f74c9bfe961e4a19c4f9202960 - - $ analyze central-3pc -n 4 --threads 2
0 5c7e1111bb837688b942ff49bd38ece7 - - $ analyze decentralized-3pc -n 3 --stream --threads 1
0 07667f7710bc70cd6fd41085a2963f13 18a5cba567d00a1162a41c80fe2df9aa - $ analyze central-3pc -n 4 --stream --mem-budget 1K
0 ec5d3bb5aa9964619605a54e965f029b - - $ analyze central-3pc -n 3 --stream --progress
0 97f5888d5d7db467b89265ab6d24488d - - $ analyze decentralized-2pc -n 2
0 648ebc2473dbf3f3391db2c4ae020736 - - $ analyze 1pc
0 a3abcd06a3531199ee04440eed3e1717 - - $ analyze kpc:4 -n 3
0 a6c33ecc658e02e2c2bc43b068cec248 - - $ analyze paxos:1 -n 2
0 7ccf6bb936da35ca1c38d6561a4bdbf2 - - $ analyze $S/linear-2pc.nbc -n 3
0 f50c4b231ff9caeefc09e14b0095b8f4 - - $ analyze $S/linear-irrevocable.nbc -n 3 --stream
0 be65ffb36ff82bd22c620cc5215d2072 - - $ verify central-3pc
0 442a1d7341c61081764ff77f8e057fff - - $ verify central-2pc -n 4 --threads 2 --progress
0 5da1fd5394fa366d0e74ae46908854e1 - - $ verify paxos:1 -n 2
0 36f79b9dcc14565b20cbd8e98191f269 - - $ verify $S/central-3pc.nbc -n 3
0 a3004ee874d3feea5e6c0bfceff0a267 - - $ verify central-2pc -n 6
0 839d291da51b92d9ae95a6c8cda48f09 - - $ verify decentralized-2pc -n 5
0 03cdfc74b4cc79efaa0d5184dc19ed70 - - $ verify kpc:4 -n 4
0 9a714cea5d4bbe8db54fc6f84c74ad6e - - $ verify central-3pc -n 7 --threads 1
0 945e2f3735ef33b3d5253bba224ef8ba - - $ graph central-2pc -n 2 --dot
0 ae0ec7b68a62478de0e8a1b70eae709e - - $ graph central-3pc -n 4 --threads 2 --progress
0 5c5063c370b393d5602c38fbd78f0c84 - - $ graph paxos:1 -n 2
0 b2aab43161b297821143089f45dfc01d - - $ graph $S/decentralized-3pc.nbc -n 3 --dot
0 4bfad48d7d8f97b113909d0c70e08d49 - - $ synthesize central-2pc
0 e92bbcc0ed756afd18de77f0071fba91 - - $ synthesize decentralized-2pc -n 3 --threads 1 --stream --mem-budget 4K --progress
0 4c8563f204f0d3da191be133211435f9 - - $ synthesize $S/central-2pc.nbc -n 3
2 7d8795253d270d3cbc80efa97dca1234 - - $ synthesize $S/linear-2pc.nbc -n 3
0 a7e6213cfaa2ec4782525295569c3cc5 - - $ simulate central-3pc
0 c7c0d5b48652181968d9128fd63115c8 - - $ simulate central-3pc --crash 0:2:1 --recover 300 --story
0 207fd99ce2b4673b26de9ecd3b973ff1 e441a1990c35018ef07d92bad60e6671 flight.jsonl=f3c212f2901a0739a59e692e36474c85 $ simulate central-2pc --crash 0:2:0 --rule cooperative --flight flight.jsonl --flight-cap 32
0 a7e6213cfaa2ec4782525295569c3cc5 - - $ simulate central-3pc --flight clean-flight.jsonl
0 fe51044f741cb64f5f6c275a161bbf7b 18a5cba567d00a1162a41c80fe2df9aa - $ simulate central-3pc -n 4 --no-voter 1 --no-voter 2 --latency 1..20 --seed 7 --threads 2 --stream --mem-budget 1K --story
0 953b1a78fd621adc3529436f1d8c33ae - - $ simulate central-3pc -n 4 --progress
0 e34d1bcd35e53cf46dbd0e5063fccfd0 - - $ simulate central-3pc --crash 0:2:1 --detector-timeout 3 --detector-jitter 1..5 --seed 3 --story
0 323dbc0c759d493f21754a0d43d7256b - - $ simulate central-3pc --crash 0:2:1 --detector-timeout 3 --story
0 1ead55c87ae17b86984a8bef2ea51ee0 - sim.jsonl=d631245d0205a189440a6bf50025defd $ simulate central-3pc --crash 0:2:1 --trace sim.jsonl --metrics
0 7a195ac2b1b3aa4f8196d56028ef35b2 - sim.chrome.json=7518ec69fda8fe9b34a2fa269971d382 $ simulate central-3pc --crash 0:2:1 --trace sim.chrome.json --trace-format chrome
0 e627f14218e200a697e4740d5e916b43 - - $ simulate central-3pc --json
0 9dbae87fdd491d8a08384a1e8c7e7fdd - - $ simulate central-3pc --crash 0:3:1 --json --metrics
0 7a195ac2b1b3aa4f8196d56028ef35b2 - - $ simulate central-3pc --crash 0:2:1 --rule naive
0 7a195ac2b1b3aa4f8196d56028ef35b2 - - $ simulate central-3pc --crash 0:2:1 --rule quorum
0 207fd99ce2b4673b26de9ecd3b973ff1 - - $ simulate central-2pc --crash 0:2:0 --rule skeen
0 50f8e8f90aab4910ce2a74d6669a61f4 - - $ simulate decentralized-3pc --crash 1:1:log --story
0 9ef615bba88f3a4f129ce079e5ec2e02 - - $ simulate paxos:1 --crash 1:1:1 --json
0 6d3a2fbbe73423cbb33c824ea1d93842 - - $ simulate kpc:4 --story
0 25c00a2b9384afd083cc73dcfc02f92d - - $ simulate $S/linear-2pc.nbc -n 3 --crash 1:1:log
0 ed26c44052b0b3c27508973feef883fa - - $ check central-3pc -n 2
0 81ea4cd1cb90232f9ea7eb9af81d48b8 - - $ check central-2pc -n 2 --json
0 fb386d811f218c07ccd3b0965cbf546e - w.jsonl=7215a857dabcf7a160f3d23cd3569c2c,w.jsonl.flight.jsonl=cd5640438209f58f7107e6dcf3bbf8d7 $ check central-2pc -n 3 --counterexample w.jsonl --trace
0 31d1adcb43b10e80170a379f5995c2df - - $ simulate central-2pc -n 3 --schedule w.jsonl
0 d6a2b881691b3e412fd75976ef2002be - - $ simulate central-2pc -n 3 --schedule w.jsonl --story
0 76dc9b5f5affe4a04b456c6e2cb91b8d - - $ simulate central-2pc -n 3 --schedule w.jsonl --json
1 09b16dc7647e0b0f6a048b522139e94e - cx/cx.jsonl=3f6f03aa3030518b90b6b889d98ae864,cx/cx.jsonl.flight.jsonl=5c200ea7e597b21b9057e62778ddb394 $ check central-3pc -n 3 --rule naive --faults 2 --counterexample cx/cx.jsonl
0 33c6c025e8ce36dbe22a7b9b3d29db76 - - $ check central-3pc -n 3 --votes yyn --depth 40 --recoveries 1 --drops 1 --max-states 2000 --seed 7 --threads 2 --mem-budget 64K --progress
1 97e3fa93e3235d0934df5b76528877a4 - - $ check central-3pc -n 3 --faults 0 --suspicions 2 --votes yyy --json
0 6e3b6b092ba5d6538644aa5cd8027bb2 - - $ check central-3pc -n 3 --faults 0 --suspicions 2 --votes yyy --rule quorum
0 33fcdfa1f7906303c65680f852b7ded4 - - $ check paxos:1 -n 2 --votes yyyyy
0 cb35ed7e5b9223e900cc5f0ff5b7a0c1 - - $ check $S/linear-2pc.nbc -n 3 --votes yyy --json
0 ff78a986ffc55455631b8f52f5cefd72 - - $ check central-2pc -n 3 --depth 9
0 71b2c3aa4f6204155270f87c45c40683 - - $ check 1pc -n 3 --votes yyy --suspicions 1 --max-states 3532
0 9e7c50efebead93c81f898fee5857fa8 - - $ sweep central-3pc
0 581586f30501b25a01d010c4c71aed90 - - $ sweep central-2pc --rule cooperative --recover 200
0 c9de8327d1f34d1ef56f78c6ea30c303 - - $ sweep central-2pc --rule naive --no-voter 0
0 81b576326a4c2d1cae407c0a32a193db - - $ sweep central-3pc --detector-timeout 2 --seed 7 --json
0 5e703e711b0a93cae1bcf7a127f0a62b - - $ sweep central-3pc --detector-timeout 2 --detector-jitter 1..4 --seed 7 --rule quorum --json
0 54ee03f64f7b13af88d365e510ef9dc6 - - $ sweep central-3pc -n 4 --latency 1..9 --seed 2 --threads 2 --stream --progress
0 54ee03f64f7b13af88d365e510ef9dc6 18a5cba567d00a1162a41c80fe2df9aa - $ sweep central-3pc -n 4 --stream --mem-budget 2K
0 07b3265c6ce6a57d965528b5129fb300 - sweep.jsonl=5da772db08ae2b8d592844ff3d00a317 $ sweep central-3pc --trace sweep.jsonl --metrics
0 d72ead251e38087e102fcf59fb33e4b7 - sweep.chrome.json=3b0e9617c4e4ae1417886349405545e2 $ sweep central-2pc --trace sweep.chrome.json --trace-format chrome
0 d63e4819446cb50d857d102ef8fd7754 - - $ sweep central-3pc --no-voter 1 --json
0 c59552e64177303d5f4ae598190796fa - - $ sweep paxos:1 -n 2
0 f64f8113fcea679af18947ba1f72b2ab - - $ sweep $S/central-3pc.nbc -n 3
0 5d802b1eab4b5c0fbb0413490ccce76a - - $ termination central-3pc
0 029d2c9acdb067a8f586fa593d5f460d - - $ termination central-2pc -n 4 --threads 2 --stream --progress
0 0b905b6587fde100fd2710c8402fb4f7 18a5cba567d00a1162a41c80fe2df9aa - $ termination central-3pc -n 4 --stream --mem-budget 2K
0 5d802b1eab4b5c0fbb0413490ccce76a - - $ termination central-3pc --recover 3
0 b007f31b9154ee6e5c63dd224a77771f - - $ termination central-3pc --metrics
0 f6f1843df2243166e941d45aefee4844 - term.jsonl=d631245d0205a189440a6bf50025defd $ termination central-3pc --trace term.jsonl --trace-format jsonl
0 4d88ccf1206137b9dd356b0a080c708b - - $ termination central-3pc --metrics --crash 1:1:1 --recover 50 --no-voter 2 --rule quorum --latency 1..4 --seed 9
0 173eb38cebf8049fcbb2ecf2a484731f - - $ termination central-3pc --metrics --detector-timeout 3 --detector-jitter 1..5 --seed 4
0 d86298c68b0e9d1b8b8c6e1a8d089060 44d37fe1e08751c2e92ac87824e807dc term-flight.jsonl=e9f752d3a4de727de59ce9249b0aeef5 $ termination central-2pc --metrics --rule cooperative --crash 0:2:0 --flight term-flight.jsonl --flight-cap 16
0 a966e2a4f9dd5f6b645dc26f39a21406 - - $ termination paxos:1 -n 2
0 88a240e6153652092f145739ee0c6f11 - - $ termination $S/linear-2pc.nbc -n 3 --metrics
0 aca72c15aec0144daf5ec1f149b7172c - - $ recovery central-3pc
0 c1d5e4727a43fd10b8f2f14a5b8baaf2 - - $ recovery central-2pc -n 4 --threads 2 --stream --progress
0 0f8c6bcc29f2c00a1657251a14a4b287 18a5cba567d00a1162a41c80fe2df9aa - $ recovery central-3pc -n 4 --stream --mem-budget 2K
0 aca72c15aec0144daf5ec1f149b7172c - - $ recovery central-3pc --recover 3
0 bfe7cc8507ee07af360b239deefc66b0 - - $ recovery central-3pc --metrics
0 8aad27aeb99a11926381dc5ea29519f6 - rec.chrome.json=39569721b4cd682cb862cfdb54249922 $ recovery central-3pc --trace rec.chrome.json --trace-format chrome --recover 120
0 9719a46de60b5a22b5c4bd8b5669e2b3 - - $ recovery central-3pc --metrics --crash 1:1:1 --no-voter 2 --rule quorum --latency 1..4 --seed 9
0 77f30eb7b221a56e4df9a20074e54779 - - $ recovery central-3pc --metrics --detector-timeout 3 --detector-jitter 1..5 --seed 4
0 9409e209fb9095ed8c1edaae9d56fd65 - - $ recovery central-2pc --metrics --rule cooperative --flight rec-flight.jsonl --flight-cap 16
0 b6201d917842e461573cc59839b303b2 - - $ recovery $S/central-2pc.nbc -n 3
0 15b17867110d31fb162da4df69de943f - - $ pipeline 3pc --txns 64 --crash-pct 25
0 ce4bb6abbf7bd8bca802d1f743f6b31a - - $ pipeline 2pc --txns 64 --crash-pct 25
0 45d0c39c54e500fc695fc85ecef76682 - - $ pipeline central-3pc -n 4 --txns 32 --in-flight 4 --window 3 --reap 17 --seed 7
0 8ded1386b3d58246a54cc29f2d813985 - - $ pipeline d3pc --txns 16
0 1631e5b93ab664cd30881e33323b34c8 - - $ pipeline decentralized-2pc --txns 16 --crash-pct 10
0 169ed1d4fa5cd53f5b1ac23fb9d9d315 - - $ pipeline paxos:1 -n 3 --txns 16 --crash-pct 25
0 909f5fac072cf3b927d8cc9a49b127d0 - - $ pipeline paxos -n 2 --txns 8
0 d4ca986659564c4355bda823fec08023 - pipe.jsonl=d32f7a14e790bf47222041c883071e7a $ pipeline central-3pc --txns 32 --series-every 8 --metrics --trace pipe.jsonl
0 e67dd8e6501dde81e3895bad7bacc78e - pipe.chrome.json=60345db8206f3fd1407075eac1d33473 $ pipeline central-3pc --txns 16 --trace pipe.chrome.json --trace-format chrome
0 39ccd9dc9a4f9d75ab5ffd2b4b8ec2ab - - $ pipeline central-2pc --txns 16 --crash-pct 50 --flight pipe-flight.jsonl --flight-cap 8
0 8def29bef32b1defe9d6f4250fa676d2 - - $ trace verify sim.jsonl
0 d74cf01ead78a23e6fd611319e3b1e55 - - $ trace verify --json sim.jsonl
0 727862cc0487829b16f7a2cbd367e928 - - $ trace verify sim.jsonl pipe.jsonl
0 897557b39999246fb56ef68ff0030e51 - - $ trace verify w.jsonl.flight.jsonl
1 16b3794358713fd896a53d6ee835bc62 - - $ trace verify cx/cx.jsonl.flight.jsonl
0 d5106038884c37563cdaaa1f66b8d706 - - $ trace stats pipe.jsonl
0 ea7286e878b24faa6d9c401f1dffdc4d - - $ trace stats pipe.jsonl --json
0 747830547b4e27d7c1f2df60eb5a27f3 - - $ trace stats sim.jsonl sweep.jsonl
0 0b31dabea34f8d4ba20397897954ee56 - - $ paxos
0 374d2070207543d516808837d5afaf63 - - $ paxos --sites 4 --faults 2 --metrics
0 fc67f132ec9bf5a86fa9423e9fba5e89 - - $ paxos -n 2 -f 0 --json
0 930a919c19d8a2983e62f7fa9762ba84 - - $ paxos --json
2 7d8795253d270d3cbc80efa97dca1234 - - $ frobnicate
2 7d8795253d270d3cbc80efa97dca1234 - - $ analyze
2 7d8795253d270d3cbc80efa97dca1234 - - $ analyze no-such-protocol
2 7d8795253d270d3cbc80efa97dca1234 - - $ simulate central-3pc --crash 9:2:1
2 7d8795253d270d3cbc80efa97dca1234 - - $ simulate central-3pc --bogus
2 7d8795253d270d3cbc80efa97dca1234 - - $ pipeline 1pc
2 7d8795253d270d3cbc80efa97dca1234 - - $ paxos --faults 9
2 7d8795253d270d3cbc80efa97dca1234 - - $ trace frob x.jsonl
2 7d8795253d270d3cbc80efa97dca1234 - - $ check central-3pc -n 2 --votes yyy
";

/// The command lines, in run order, each with the files it must write.
const LINES: &[(&str, &[&str])] = &[
    ("list", &[]),
    // analyze
    ("analyze central-2pc", &[]),
    ("analyze central-3pc -n 4 --threads 2", &[]),
    ("analyze decentralized-3pc -n 3 --stream --threads 1", &[]),
    ("analyze central-3pc -n 4 --stream --mem-budget 1K", &[]),
    ("analyze central-3pc -n 3 --stream --progress", &[]),
    ("analyze decentralized-2pc -n 2", &[]),
    ("analyze 1pc", &[]),
    ("analyze kpc:4 -n 3", &[]),
    ("analyze paxos:1 -n 2", &[]),
    ("analyze $S/linear-2pc.nbc -n 3", &[]),
    ("analyze $S/linear-irrevocable.nbc -n 3 --stream", &[]),
    // verify
    ("verify central-3pc", &[]),
    ("verify central-2pc -n 4 --threads 2 --progress", &[]),
    ("verify paxos:1 -n 2", &[]),
    ("verify $S/central-3pc.nbc -n 3", &[]),
    ("verify central-2pc -n 6", &[]),
    ("verify decentralized-2pc -n 5", &[]),
    ("verify kpc:4 -n 4", &[]),
    ("verify central-3pc -n 7 --threads 1", &[]),
    // graph
    ("graph central-2pc -n 2 --dot", &[]),
    ("graph central-3pc -n 4 --threads 2 --progress", &[]),
    ("graph paxos:1 -n 2", &[]),
    ("graph $S/decentralized-3pc.nbc -n 3 --dot", &[]),
    // synthesize
    ("synthesize central-2pc", &[]),
    ("synthesize decentralized-2pc -n 3 --threads 1 --stream --mem-budget 4K --progress", &[]),
    ("synthesize $S/central-2pc.nbc -n 3", &[]),
    ("synthesize $S/linear-2pc.nbc -n 3", &[]),
    // simulate
    ("simulate central-3pc", &[]),
    ("simulate central-3pc --crash 0:2:1 --recover 300 --story", &[]),
    (
        "simulate central-2pc --crash 0:2:0 --rule cooperative --flight flight.jsonl --flight-cap 32",
        &["flight.jsonl"],
    ),
    ("simulate central-3pc --flight clean-flight.jsonl", &[]),
    (
        "simulate central-3pc -n 4 --no-voter 1 --no-voter 2 --latency 1..20 --seed 7 --threads 2 \
         --stream --mem-budget 1K --story",
        &[],
    ),
    ("simulate central-3pc -n 4 --progress", &[]),
    (
        "simulate central-3pc --crash 0:2:1 --detector-timeout 3 --detector-jitter 1..5 --seed 3 --story",
        &[],
    ),
    ("simulate central-3pc --crash 0:2:1 --detector-timeout 3 --story", &[]),
    ("simulate central-3pc --crash 0:2:1 --trace sim.jsonl --metrics", &["sim.jsonl"]),
    (
        "simulate central-3pc --crash 0:2:1 --trace sim.chrome.json --trace-format chrome",
        &["sim.chrome.json"],
    ),
    ("simulate central-3pc --json", &[]),
    ("simulate central-3pc --crash 0:3:1 --json --metrics", &[]),
    ("simulate central-3pc --crash 0:2:1 --rule naive", &[]),
    ("simulate central-3pc --crash 0:2:1 --rule quorum", &[]),
    ("simulate central-2pc --crash 0:2:0 --rule skeen", &[]),
    ("simulate decentralized-3pc --crash 1:1:log --story", &[]),
    ("simulate paxos:1 --crash 1:1:1 --json", &[]),
    ("simulate kpc:4 --story", &[]),
    ("simulate $S/linear-2pc.nbc -n 3 --crash 1:1:log", &[]),
    // check, and the replay of what it wrote
    ("check central-3pc -n 2", &[]),
    ("check central-2pc -n 2 --json", &[]),
    (
        "check central-2pc -n 3 --counterexample w.jsonl --trace",
        &["w.jsonl", "w.jsonl.flight.jsonl"],
    ),
    ("simulate central-2pc -n 3 --schedule w.jsonl", &[]),
    ("simulate central-2pc -n 3 --schedule w.jsonl --story", &[]),
    ("simulate central-2pc -n 3 --schedule w.jsonl --json", &[]),
    (
        "check central-3pc -n 3 --rule naive --faults 2 --counterexample cx/cx.jsonl",
        &["cx/cx.jsonl", "cx/cx.jsonl.flight.jsonl"],
    ),
    (
        "check central-3pc -n 3 --votes yyn --depth 40 --recoveries 1 --drops 1 --max-states 2000 \
         --seed 7 --threads 2 --mem-budget 64K --progress",
        &[],
    ),
    ("check central-3pc -n 3 --faults 0 --suspicions 2 --votes yyy --json", &[]),
    ("check central-3pc -n 3 --faults 0 --suspicions 2 --votes yyy --rule quorum", &[]),
    ("check paxos:1 -n 2 --votes yyyyy", &[]),
    ("check $S/linear-2pc.nbc -n 3 --votes yyy --json", &[]),
    ("check central-2pc -n 3 --depth 9", &[]),
    ("check 1pc -n 3 --votes yyy --suspicions 1 --max-states 3532", &[]),
    // sweep
    ("sweep central-3pc", &[]),
    ("sweep central-2pc --rule cooperative --recover 200", &[]),
    ("sweep central-2pc --rule naive --no-voter 0", &[]),
    ("sweep central-3pc --detector-timeout 2 --seed 7 --json", &[]),
    (
        "sweep central-3pc --detector-timeout 2 --detector-jitter 1..4 --seed 7 --rule quorum --json",
        &[],
    ),
    ("sweep central-3pc -n 4 --latency 1..9 --seed 2 --threads 2 --stream --progress", &[]),
    ("sweep central-3pc -n 4 --stream --mem-budget 2K", &[]),
    ("sweep central-3pc --trace sweep.jsonl --metrics", &["sweep.jsonl"]),
    (
        "sweep central-2pc --trace sweep.chrome.json --trace-format chrome",
        &["sweep.chrome.json"],
    ),
    ("sweep central-3pc --no-voter 1 --json", &[]),
    ("sweep paxos:1 -n 2", &[]),
    ("sweep $S/central-3pc.nbc -n 3", &[]),
    // termination / recovery
    ("termination central-3pc", &[]),
    ("termination central-2pc -n 4 --threads 2 --stream --progress", &[]),
    ("termination central-3pc -n 4 --stream --mem-budget 2K", &[]),
    ("termination central-3pc --recover 3", &[]),
    ("termination central-3pc --metrics", &[]),
    ("termination central-3pc --trace term.jsonl --trace-format jsonl", &["term.jsonl"]),
    (
        "termination central-3pc --metrics --crash 1:1:1 --recover 50 --no-voter 2 --rule quorum \
         --latency 1..4 --seed 9",
        &[],
    ),
    ("termination central-3pc --metrics --detector-timeout 3 --detector-jitter 1..5 --seed 4", &[]),
    (
        "termination central-2pc --metrics --rule cooperative --crash 0:2:0 --flight term-flight.jsonl --flight-cap 16",
        &["term-flight.jsonl"],
    ),
    ("termination paxos:1 -n 2", &[]),
    ("termination $S/linear-2pc.nbc -n 3 --metrics", &[]),
    ("recovery central-3pc", &[]),
    ("recovery central-2pc -n 4 --threads 2 --stream --progress", &[]),
    ("recovery central-3pc -n 4 --stream --mem-budget 2K", &[]),
    ("recovery central-3pc --recover 3", &[]),
    ("recovery central-3pc --metrics", &[]),
    (
        "recovery central-3pc --trace rec.chrome.json --trace-format chrome --recover 120",
        &["rec.chrome.json"],
    ),
    (
        "recovery central-3pc --metrics --crash 1:1:1 --no-voter 2 --rule quorum --latency 1..4 --seed 9",
        &[],
    ),
    ("recovery central-3pc --metrics --detector-timeout 3 --detector-jitter 1..5 --seed 4", &[]),
    (
        "recovery central-2pc --metrics --rule cooperative --flight rec-flight.jsonl --flight-cap 16",
        &[],
    ),
    ("recovery $S/central-2pc.nbc -n 3", &[]),
    // pipeline
    ("pipeline 3pc --txns 64 --crash-pct 25", &[]),
    ("pipeline 2pc --txns 64 --crash-pct 25", &[]),
    ("pipeline central-3pc -n 4 --txns 32 --in-flight 4 --window 3 --reap 17 --seed 7", &[]),
    ("pipeline d3pc --txns 16", &[]),
    ("pipeline decentralized-2pc --txns 16 --crash-pct 10", &[]),
    ("pipeline paxos:1 -n 3 --txns 16 --crash-pct 25", &[]),
    ("pipeline paxos -n 2 --txns 8", &[]),
    (
        "pipeline central-3pc --txns 32 --series-every 8 --metrics --trace pipe.jsonl",
        &["pipe.jsonl"],
    ),
    (
        "pipeline central-3pc --txns 16 --trace pipe.chrome.json --trace-format chrome",
        &["pipe.chrome.json"],
    ),
    (
        "pipeline central-2pc --txns 16 --crash-pct 50 --flight pipe-flight.jsonl --flight-cap 8",
        &[],
    ),
    // trace
    ("trace verify sim.jsonl", &[]),
    ("trace verify --json sim.jsonl", &[]),
    ("trace verify sim.jsonl pipe.jsonl", &[]),
    ("trace verify w.jsonl.flight.jsonl", &[]),
    ("trace verify cx/cx.jsonl.flight.jsonl", &[]),
    ("trace stats pipe.jsonl", &[]),
    ("trace stats pipe.jsonl --json", &[]),
    ("trace stats sim.jsonl sweep.jsonl", &[]),
    // paxos
    ("paxos", &[]),
    ("paxos --sites 4 --faults 2 --metrics", &[]),
    ("paxos -n 2 -f 0 --json", &[]),
    ("paxos --json", &[]),
    // usage errors that were usage errors
    ("frobnicate", &[]),
    ("analyze", &[]),
    ("analyze no-such-protocol", &[]),
    ("simulate central-3pc --crash 9:2:1", &[]),
    ("simulate central-3pc --bogus", &[]),
    ("pipeline 1pc", &[]),
    ("paxos --faults 9", &[]),
    ("trace frob x.jsonl", &[]),
    ("check central-3pc -n 2 --votes yyy", &[]),
];

fn fp(bytes: &[u8]) -> String {
    let mut h = Fp128::new();
    h.write_bytes(bytes);
    format!("{:032x}", h.finish())
}

fn run_line(dir: &Path, specs: &str, line: &str, files: &[&str]) -> String {
    let args: Vec<String> = line.split_whitespace().map(|a| a.replace("$S", specs)).collect();
    let out = Command::new(env!("CARGO_BIN_EXE_nbc"))
        .args(&args)
        .current_dir(dir)
        .output()
        .expect("run nbc binary");
    let code = out.status.code().unwrap_or(-1);
    let stdout = String::from_utf8_lossy(&out.stdout).replace(specs, "$S");
    let stderr = String::from_utf8_lossy(&out.stderr).replace(specs, "$S");
    let first = match stderr.lines().next() {
        Some(l) if code != 2 && !line.contains("--progress") => fp(l.as_bytes()),
        _ => "-".to_string(),
    };
    let mut written = String::new();
    for f in files {
        let bytes =
            std::fs::read(dir.join(f)).unwrap_or_else(|e| panic!("`{line}` left no {f}: {e}"));
        let _ = write!(written, "{}{f}={}", if written.is_empty() { "" } else { "," }, fp(&bytes));
    }
    if written.is_empty() {
        written.push('-');
    }
    let line = line.split_whitespace().collect::<Vec<_>>().join(" ");
    format!("{code} {} {first} {written} $ {line}", fp(stdout.as_bytes()))
}

#[test]
fn every_command_line_prints_the_pinned_bytes() {
    let dir = std::env::temp_dir().join(format!("nbc-pinned-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let specs = format!("{}/../../specs", env!("CARGO_MANIFEST_DIR"));
    let mut now = String::new();
    for (line, files) in LINES {
        let _ = writeln!(now, "{}", run_line(&dir, &specs, line, files));
    }
    // A clean run writes no flight dump: the file's absence is part of
    // the contract.
    for absent in ["clean-flight.jsonl", "rec-flight.jsonl", "pipe-flight.jsonl"] {
        assert!(!dir.join(absent).exists(), "{absent} was written by a run that ended well");
    }
    let _ = std::fs::remove_dir_all(&dir);
    let moved: Vec<&str> =
        now.lines().zip(PINNED.lines()).filter(|(n, p)| n != p).map(|(n, _)| n).collect();
    assert!(
        now == PINNED,
        "nbc no longer prints the pinned bytes; {} line(s) moved:\n{}\nthe whole table now:\n{now}",
        moved.len(),
        moved.join("\n")
    );
}
