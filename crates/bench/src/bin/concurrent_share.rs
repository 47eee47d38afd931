//! Regenerates the §4.4 concurrent CORBA + MPI bandwidth-sharing result.

use padico_bench::concurrent;

fn main() {
    let r = concurrent::run(256 << 10, 24);
    println!("## §4.4 — concurrent CORBA + MPI over one Myrinet NIC\n");
    println!("| flow | alone (MB/s) | concurrent (MB/s) | paper |");
    println!("|---|---:|---:|---:|");
    println!(
        "| MPI | {:.1} | {:.1} | 120 |",
        r.mpi_alone_mb_s, r.mpi_shared_mb_s
    );
    println!(
        "| CORBA (omniORB) | {:.1} | {:.1} | 120 |",
        r.corba_alone_mb_s, r.corba_shared_mb_s
    );
    println!("| aggregate | – | {:.1} | 240 |", r.aggregate_mb_s);
}
