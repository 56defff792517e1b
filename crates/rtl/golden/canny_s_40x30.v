// Auto-generated by imagen-rtl for pipeline `Canny-s` (40x30 @ 16 bpp)
// Style: Ours. Do not edit.


module imagen_sram_1p #(
    parameter DEPTH = 512,
    parameter WIDTH = 16,
    parameter AW = 9
) (
    input  wire           clk,
    input  wire           en,
    input  wire           we,
    input  wire [AW-1:0]  addr,
    input  wire [WIDTH-1:0] wdata,
    output reg  [WIDTH-1:0] rdata
);
    reg [WIDTH-1:0] mem [0:DEPTH-1];
    always @(posedge clk) begin
        if (en) begin
            if (we) mem[addr] <= wdata;
            rdata <= mem[addr];
        end
    end
endmodule

module imagen_sram_2p #(
    parameter DEPTH = 512,
    parameter WIDTH = 16,
    parameter AW = 9
) (
    input  wire           clk,
    input  wire           en_a,
    input  wire           we_a,
    input  wire [AW-1:0]  addr_a,
    input  wire [WIDTH-1:0] wdata_a,
    output reg  [WIDTH-1:0] rdata_a,
    input  wire           en_b,
    input  wire [AW-1:0]  addr_b,
    output reg  [WIDTH-1:0] rdata_b
);
    reg [WIDTH-1:0] mem [0:DEPTH-1];
    always @(posedge clk) begin
        if (en_a) begin
            if (we_a) mem[addr_a] <= wdata_a;
            rdata_a <= mem[addr_a];
        end
        if (en_b) rdata_b <= mem[addr_b];
    end
endmodule
module stage_blur_h (
    input  wire clk,
    input  wire en,
    input  wire signed [15:0] win0 [0:2],
    output reg  signed [15:0] pixel_out
);
    wire signed [31:0] result = ((((((win0[0]) + (((32'sd2) * (win0[1]))))) + (win0[2]))) >>> (32'sd2));
    always @(posedge clk) begin
        if (en) pixel_out <= result[15:0];
    end
endmodule

module stage_blur_v (
    input  wire clk,
    input  wire en,
    input  wire signed [15:0] win0 [0:2],
    output reg  signed [15:0] pixel_out
);
    wire signed [31:0] result = ((((((win0[0]) + (((32'sd2) * (win0[1]))))) + (win0[2]))) >>> (32'sd2));
    always @(posedge clk) begin
        if (en) pixel_out <= result[15:0];
    end
endmodule

module stage_gmag (
    input  wire clk,
    input  wire en,
    input  wire signed [15:0] win0 [0:8],
    output reg  signed [15:0] pixel_out
);
    wire signed [31:0] result = (((((((((((((((win0[2]) + (((32'sd2) * (win0[5]))))) + (win0[8]))) - (win0[0]))) - (((32'sd2) * (win0[3]))))) - (win0[6]))) < 0) ? (-(((((((((((win0[2]) + (((32'sd2) * (win0[5]))))) + (win0[8]))) - (win0[0]))) - (((32'sd2) * (win0[3]))))) - (win0[6])))) : (((((((((((win0[2]) + (((32'sd2) * (win0[5]))))) + (win0[8]))) - (win0[0]))) - (((32'sd2) * (win0[3]))))) - (win0[6]))))) + ((((((((((((((win0[6]) + (((32'sd2) * (win0[7]))))) + (win0[8]))) - (win0[0]))) - (((32'sd2) * (win0[1]))))) - (win0[2]))) < 0) ? (-(((((((((((win0[6]) + (((32'sd2) * (win0[7]))))) + (win0[8]))) - (win0[0]))) - (((32'sd2) * (win0[1]))))) - (win0[2])))) : (((((((((((win0[6]) + (((32'sd2) * (win0[7]))))) + (win0[8]))) - (win0[0]))) - (((32'sd2) * (win0[1]))))) - (win0[2]))))));
    always @(posedge clk) begin
        if (en) pixel_out <= result[15:0];
    end
endmodule

module stage_nms (
    input  wire clk,
    input  wire en,
    input  wire signed [15:0] win0 [0:8],
    output reg  signed [15:0] pixel_out
);
    wire signed [31:0] result = ((((((win0[4]) >= (((((((win0[3]) > (win0[5])) ? (win0[3]) : (win0[5]))) > ((((win0[1]) > (win0[7])) ? (win0[1]) : (win0[7])))) ? ((((win0[3]) > (win0[5])) ? (win0[3]) : (win0[5]))) : ((((win0[1]) > (win0[7])) ? (win0[1]) : (win0[7])))))) ? 1 : 0)) != 0) ? (win0[4]) : (32'sd0));
    always @(posedge clk) begin
        if (en) pixel_out <= result[15:0];
    end
endmodule

module stage_thresh (
    input  wire clk,
    input  wire en,
    input  wire signed [15:0] win0 [0:0],
    output reg  signed [15:0] pixel_out
);
    wire signed [31:0] result = ((((((win0[0]) > (32'sd48)) ? 1 : 0)) != 0) ? (32'sd2) : (((((((win0[0]) > (32'sd24)) ? 1 : 0)) != 0) ? (32'sd1) : (32'sd0))));
    always @(posedge clk) begin
        if (en) pixel_out <= result[15:0];
    end
endmodule

module stage_hyst1 (
    input  wire clk,
    input  wire en,
    input  wire signed [15:0] win0 [0:8],
    output reg  signed [15:0] pixel_out
);
    wire signed [31:0] result = ((((((win0[4]) == (32'sd2)) ? 1 : 0)) != 0) ? (32'sd2) : (((((((win0[4]) == (32'sd1)) ? 1 : 0)) != 0) ? (((((((((((((win0[0]) > (win0[2])) ? (win0[0]) : (win0[2]))) > ((((win0[6]) > (win0[8])) ? (win0[6]) : (win0[8])))) ? ((((win0[0]) > (win0[2])) ? (win0[0]) : (win0[2]))) : ((((win0[6]) > (win0[8])) ? (win0[6]) : (win0[8]))))) == (32'sd2)) ? 1 : 0)) != 0) ? (32'sd2) : (32'sd0))) : (32'sd0))));
    always @(posedge clk) begin
        if (en) pixel_out <= result[15:0];
    end
endmodule

module stage_hyst2 (
    input  wire clk,
    input  wire en,
    input  wire signed [15:0] win0 [0:8],
    output reg  signed [15:0] pixel_out
);
    wire signed [31:0] result = ((((((win0[4]) == (32'sd2)) ? 1 : 0)) != 0) ? (32'sd2) : (((((((win0[4]) == (32'sd1)) ? 1 : 0)) != 0) ? (((((((((((((win0[3]) > (win0[5])) ? (win0[3]) : (win0[5]))) > ((((win0[1]) > (win0[7])) ? (win0[1]) : (win0[7])))) ? ((((win0[3]) > (win0[5])) ? (win0[3]) : (win0[5]))) : ((((win0[1]) > (win0[7])) ? (win0[1]) : (win0[7]))))) == (32'sd2)) ? 1 : 0)) != 0) ? (32'sd2) : (32'sd0))) : (32'sd0))));
    always @(posedge clk) begin
        if (en) pixel_out <= result[15:0];
    end
endmodule

module stage_edges (
    input  wire clk,
    input  wire en,
    input  wire signed [15:0] win0 [0:0],
    output reg  signed [15:0] pixel_out
);
    wire signed [31:0] result = ((((((win0[0]) == (32'sd2)) ? 1 : 0)) != 0) ? (32'sd255) : (32'sd0));
    always @(posedge clk) begin
        if (en) pixel_out <= result[15:0];
    end
endmodule

module linebuf_raw (
    input  wire clk,
    input  wire wen,
    input  wire [31:0] wrow,
    input  wire [31:0] wcol,
    input  wire signed [15:0] wdata,
    input  wire ren,
    input  wire [31:0] rrow,
    input  wire [31:0] rcol,
    output wire signed [15:0] rdata
);
    // 1 physical rows over 1 blocks (1 rows/block, 2 ports)
    wire [31:0] wphys = wrow % 1;
    wire [31:0] rphys = rrow % 1;
    wire [31:0] wblk = wphys / 1;
    wire [31:0] rblk = rphys / 1;
    wire [5:0] waddr = (wphys % 1) * 40 + wcol;
    wire [5:0] raddr = (rphys % 1) * 40 + rcol;
    wire signed [15:0] rdata_blk [0:0];
    imagen_sram_2p #(.DEPTH(64), .WIDTH(16), .AW(6)) u_blk0 (
        .clk(clk),
        .en_a(wen && wblk == 0),
        .we_a(wen && wblk == 0),
        .addr_a(waddr),
        .wdata_a(wdata),
        .rdata_a(),
        .en_b(ren && rblk == 0),
        .addr_b(raddr),
        .rdata_b(rdata_blk[0])
    );
    reg [31:0] rblk_q;
    always @(posedge clk) rblk_q <= rblk;
    assign rdata = rdata_blk[rblk_q];
endmodule

module linebuf_blur_h (
    input  wire clk,
    input  wire wen,
    input  wire [31:0] wrow,
    input  wire [31:0] wcol,
    input  wire signed [15:0] wdata,
    input  wire ren,
    input  wire [31:0] rrow,
    input  wire [31:0] rcol,
    output wire signed [15:0] rdata
);
    // 3 physical rows over 3 blocks (1 rows/block, 2 ports)
    wire [31:0] wphys = wrow % 3;
    wire [31:0] rphys = rrow % 3;
    wire [31:0] wblk = wphys / 1;
    wire [31:0] rblk = rphys / 1;
    wire [5:0] waddr = (wphys % 1) * 40 + wcol;
    wire [5:0] raddr = (rphys % 1) * 40 + rcol;
    wire signed [15:0] rdata_blk [0:2];
    imagen_sram_2p #(.DEPTH(64), .WIDTH(16), .AW(6)) u_blk0 (
        .clk(clk),
        .en_a(wen && wblk == 0),
        .we_a(wen && wblk == 0),
        .addr_a(waddr),
        .wdata_a(wdata),
        .rdata_a(),
        .en_b(ren && rblk == 0),
        .addr_b(raddr),
        .rdata_b(rdata_blk[0])
    );
    imagen_sram_2p #(.DEPTH(64), .WIDTH(16), .AW(6)) u_blk1 (
        .clk(clk),
        .en_a(wen && wblk == 1),
        .we_a(wen && wblk == 1),
        .addr_a(waddr),
        .wdata_a(wdata),
        .rdata_a(),
        .en_b(ren && rblk == 1),
        .addr_b(raddr),
        .rdata_b(rdata_blk[1])
    );
    imagen_sram_2p #(.DEPTH(64), .WIDTH(16), .AW(6)) u_blk2 (
        .clk(clk),
        .en_a(wen && wblk == 2),
        .we_a(wen && wblk == 2),
        .addr_a(waddr),
        .wdata_a(wdata),
        .rdata_a(),
        .en_b(ren && rblk == 2),
        .addr_b(raddr),
        .rdata_b(rdata_blk[2])
    );
    reg [31:0] rblk_q;
    always @(posedge clk) rblk_q <= rblk;
    assign rdata = rdata_blk[rblk_q];
endmodule

module linebuf_blur_v (
    input  wire clk,
    input  wire wen,
    input  wire [31:0] wrow,
    input  wire [31:0] wcol,
    input  wire signed [15:0] wdata,
    input  wire ren,
    input  wire [31:0] rrow,
    input  wire [31:0] rcol,
    output wire signed [15:0] rdata
);
    // 3 physical rows over 3 blocks (1 rows/block, 2 ports)
    wire [31:0] wphys = wrow % 3;
    wire [31:0] rphys = rrow % 3;
    wire [31:0] wblk = wphys / 1;
    wire [31:0] rblk = rphys / 1;
    wire [5:0] waddr = (wphys % 1) * 40 + wcol;
    wire [5:0] raddr = (rphys % 1) * 40 + rcol;
    wire signed [15:0] rdata_blk [0:2];
    imagen_sram_2p #(.DEPTH(64), .WIDTH(16), .AW(6)) u_blk0 (
        .clk(clk),
        .en_a(wen && wblk == 0),
        .we_a(wen && wblk == 0),
        .addr_a(waddr),
        .wdata_a(wdata),
        .rdata_a(),
        .en_b(ren && rblk == 0),
        .addr_b(raddr),
        .rdata_b(rdata_blk[0])
    );
    imagen_sram_2p #(.DEPTH(64), .WIDTH(16), .AW(6)) u_blk1 (
        .clk(clk),
        .en_a(wen && wblk == 1),
        .we_a(wen && wblk == 1),
        .addr_a(waddr),
        .wdata_a(wdata),
        .rdata_a(),
        .en_b(ren && rblk == 1),
        .addr_b(raddr),
        .rdata_b(rdata_blk[1])
    );
    imagen_sram_2p #(.DEPTH(64), .WIDTH(16), .AW(6)) u_blk2 (
        .clk(clk),
        .en_a(wen && wblk == 2),
        .we_a(wen && wblk == 2),
        .addr_a(waddr),
        .wdata_a(wdata),
        .rdata_a(),
        .en_b(ren && rblk == 2),
        .addr_b(raddr),
        .rdata_b(rdata_blk[2])
    );
    reg [31:0] rblk_q;
    always @(posedge clk) rblk_q <= rblk;
    assign rdata = rdata_blk[rblk_q];
endmodule

module linebuf_gmag (
    input  wire clk,
    input  wire wen,
    input  wire [31:0] wrow,
    input  wire [31:0] wcol,
    input  wire signed [15:0] wdata,
    input  wire ren,
    input  wire [31:0] rrow,
    input  wire [31:0] rcol,
    output wire signed [15:0] rdata
);
    // 3 physical rows over 3 blocks (1 rows/block, 2 ports)
    wire [31:0] wphys = wrow % 3;
    wire [31:0] rphys = rrow % 3;
    wire [31:0] wblk = wphys / 1;
    wire [31:0] rblk = rphys / 1;
    wire [5:0] waddr = (wphys % 1) * 40 + wcol;
    wire [5:0] raddr = (rphys % 1) * 40 + rcol;
    wire signed [15:0] rdata_blk [0:2];
    imagen_sram_2p #(.DEPTH(64), .WIDTH(16), .AW(6)) u_blk0 (
        .clk(clk),
        .en_a(wen && wblk == 0),
        .we_a(wen && wblk == 0),
        .addr_a(waddr),
        .wdata_a(wdata),
        .rdata_a(),
        .en_b(ren && rblk == 0),
        .addr_b(raddr),
        .rdata_b(rdata_blk[0])
    );
    imagen_sram_2p #(.DEPTH(64), .WIDTH(16), .AW(6)) u_blk1 (
        .clk(clk),
        .en_a(wen && wblk == 1),
        .we_a(wen && wblk == 1),
        .addr_a(waddr),
        .wdata_a(wdata),
        .rdata_a(),
        .en_b(ren && rblk == 1),
        .addr_b(raddr),
        .rdata_b(rdata_blk[1])
    );
    imagen_sram_2p #(.DEPTH(64), .WIDTH(16), .AW(6)) u_blk2 (
        .clk(clk),
        .en_a(wen && wblk == 2),
        .we_a(wen && wblk == 2),
        .addr_a(waddr),
        .wdata_a(wdata),
        .rdata_a(),
        .en_b(ren && rblk == 2),
        .addr_b(raddr),
        .rdata_b(rdata_blk[2])
    );
    reg [31:0] rblk_q;
    always @(posedge clk) rblk_q <= rblk;
    assign rdata = rdata_blk[rblk_q];
endmodule

module linebuf_nms (
    input  wire clk,
    input  wire wen,
    input  wire [31:0] wrow,
    input  wire [31:0] wcol,
    input  wire signed [15:0] wdata,
    input  wire ren,
    input  wire [31:0] rrow,
    input  wire [31:0] rcol,
    output wire signed [15:0] rdata
);
    // 1 physical rows over 1 blocks (1 rows/block, 2 ports)
    wire [31:0] wphys = wrow % 1;
    wire [31:0] rphys = rrow % 1;
    wire [31:0] wblk = wphys / 1;
    wire [31:0] rblk = rphys / 1;
    wire [5:0] waddr = (wphys % 1) * 40 + wcol;
    wire [5:0] raddr = (rphys % 1) * 40 + rcol;
    wire signed [15:0] rdata_blk [0:0];
    imagen_sram_2p #(.DEPTH(64), .WIDTH(16), .AW(6)) u_blk0 (
        .clk(clk),
        .en_a(wen && wblk == 0),
        .we_a(wen && wblk == 0),
        .addr_a(waddr),
        .wdata_a(wdata),
        .rdata_a(),
        .en_b(ren && rblk == 0),
        .addr_b(raddr),
        .rdata_b(rdata_blk[0])
    );
    reg [31:0] rblk_q;
    always @(posedge clk) rblk_q <= rblk;
    assign rdata = rdata_blk[rblk_q];
endmodule

module linebuf_thresh (
    input  wire clk,
    input  wire wen,
    input  wire [31:0] wrow,
    input  wire [31:0] wcol,
    input  wire signed [15:0] wdata,
    input  wire ren,
    input  wire [31:0] rrow,
    input  wire [31:0] rcol,
    output wire signed [15:0] rdata
);
    // 3 physical rows over 3 blocks (1 rows/block, 2 ports)
    wire [31:0] wphys = wrow % 3;
    wire [31:0] rphys = rrow % 3;
    wire [31:0] wblk = wphys / 1;
    wire [31:0] rblk = rphys / 1;
    wire [5:0] waddr = (wphys % 1) * 40 + wcol;
    wire [5:0] raddr = (rphys % 1) * 40 + rcol;
    wire signed [15:0] rdata_blk [0:2];
    imagen_sram_2p #(.DEPTH(64), .WIDTH(16), .AW(6)) u_blk0 (
        .clk(clk),
        .en_a(wen && wblk == 0),
        .we_a(wen && wblk == 0),
        .addr_a(waddr),
        .wdata_a(wdata),
        .rdata_a(),
        .en_b(ren && rblk == 0),
        .addr_b(raddr),
        .rdata_b(rdata_blk[0])
    );
    imagen_sram_2p #(.DEPTH(64), .WIDTH(16), .AW(6)) u_blk1 (
        .clk(clk),
        .en_a(wen && wblk == 1),
        .we_a(wen && wblk == 1),
        .addr_a(waddr),
        .wdata_a(wdata),
        .rdata_a(),
        .en_b(ren && rblk == 1),
        .addr_b(raddr),
        .rdata_b(rdata_blk[1])
    );
    imagen_sram_2p #(.DEPTH(64), .WIDTH(16), .AW(6)) u_blk2 (
        .clk(clk),
        .en_a(wen && wblk == 2),
        .we_a(wen && wblk == 2),
        .addr_a(waddr),
        .wdata_a(wdata),
        .rdata_a(),
        .en_b(ren && rblk == 2),
        .addr_b(raddr),
        .rdata_b(rdata_blk[2])
    );
    reg [31:0] rblk_q;
    always @(posedge clk) rblk_q <= rblk;
    assign rdata = rdata_blk[rblk_q];
endmodule

module linebuf_hyst1 (
    input  wire clk,
    input  wire wen,
    input  wire [31:0] wrow,
    input  wire [31:0] wcol,
    input  wire signed [15:0] wdata,
    input  wire ren,
    input  wire [31:0] rrow,
    input  wire [31:0] rcol,
    output wire signed [15:0] rdata
);
    // 3 physical rows over 3 blocks (1 rows/block, 2 ports)
    wire [31:0] wphys = wrow % 3;
    wire [31:0] rphys = rrow % 3;
    wire [31:0] wblk = wphys / 1;
    wire [31:0] rblk = rphys / 1;
    wire [5:0] waddr = (wphys % 1) * 40 + wcol;
    wire [5:0] raddr = (rphys % 1) * 40 + rcol;
    wire signed [15:0] rdata_blk [0:2];
    imagen_sram_2p #(.DEPTH(64), .WIDTH(16), .AW(6)) u_blk0 (
        .clk(clk),
        .en_a(wen && wblk == 0),
        .we_a(wen && wblk == 0),
        .addr_a(waddr),
        .wdata_a(wdata),
        .rdata_a(),
        .en_b(ren && rblk == 0),
        .addr_b(raddr),
        .rdata_b(rdata_blk[0])
    );
    imagen_sram_2p #(.DEPTH(64), .WIDTH(16), .AW(6)) u_blk1 (
        .clk(clk),
        .en_a(wen && wblk == 1),
        .we_a(wen && wblk == 1),
        .addr_a(waddr),
        .wdata_a(wdata),
        .rdata_a(),
        .en_b(ren && rblk == 1),
        .addr_b(raddr),
        .rdata_b(rdata_blk[1])
    );
    imagen_sram_2p #(.DEPTH(64), .WIDTH(16), .AW(6)) u_blk2 (
        .clk(clk),
        .en_a(wen && wblk == 2),
        .we_a(wen && wblk == 2),
        .addr_a(waddr),
        .wdata_a(wdata),
        .rdata_a(),
        .en_b(ren && rblk == 2),
        .addr_b(raddr),
        .rdata_b(rdata_blk[2])
    );
    reg [31:0] rblk_q;
    always @(posedge clk) rblk_q <= rblk;
    assign rdata = rdata_blk[rblk_q];
endmodule

module linebuf_hyst2 (
    input  wire clk,
    input  wire wen,
    input  wire [31:0] wrow,
    input  wire [31:0] wcol,
    input  wire signed [15:0] wdata,
    input  wire ren,
    input  wire [31:0] rrow,
    input  wire [31:0] rcol,
    output wire signed [15:0] rdata
);
    // 1 physical rows over 1 blocks (1 rows/block, 2 ports)
    wire [31:0] wphys = wrow % 1;
    wire [31:0] rphys = rrow % 1;
    wire [31:0] wblk = wphys / 1;
    wire [31:0] rblk = rphys / 1;
    wire [5:0] waddr = (wphys % 1) * 40 + wcol;
    wire [5:0] raddr = (rphys % 1) * 40 + rcol;
    wire signed [15:0] rdata_blk [0:0];
    imagen_sram_2p #(.DEPTH(64), .WIDTH(16), .AW(6)) u_blk0 (
        .clk(clk),
        .en_a(wen && wblk == 0),
        .we_a(wen && wblk == 0),
        .addr_a(waddr),
        .wdata_a(wdata),
        .rdata_a(),
        .en_b(ren && rblk == 0),
        .addr_b(raddr),
        .rdata_b(rdata_blk[0])
    );
    reg [31:0] rblk_q;
    always @(posedge clk) rblk_q <= rblk;
    assign rdata = rdata_blk[rblk_q];
endmodule

module imagen_top_Canny_s (
    input  wire clk,
    input  wire rst,
    input  wire signed [15:0] stream_in_0,
    output wire signed [15:0] stream_out_0,
    output wire frame_done
);
    reg [63:0] cycle;
    always @(posedge clk) begin
        if (rst) cycle <= 64'd0;
        else cycle <= cycle + 64'd1;
    end
    wire en_raw = (cycle >= 64'd0) && (cycle < 64'd1200);
    wire [63:0] k_raw = cycle - 64'd0;
    wire [31:0] y_raw = k_raw / 40;
    wire [31:0] x_raw = k_raw % 40;
    wire en_blur_h = (cycle >= 64'd1) && (cycle < 64'd1201);
    wire [63:0] k_blur_h = cycle - 64'd1;
    wire [31:0] y_blur_h = k_blur_h / 40;
    wire [31:0] x_blur_h = k_blur_h % 40;
    wire en_blur_v = (cycle >= 64'd82) && (cycle < 64'd1282);
    wire [63:0] k_blur_v = cycle - 64'd82;
    wire [31:0] y_blur_v = k_blur_v / 40;
    wire [31:0] x_blur_v = k_blur_v % 40;
    wire en_gmag = (cycle >= 64'd163) && (cycle < 64'd1363);
    wire [63:0] k_gmag = cycle - 64'd163;
    wire [31:0] y_gmag = k_gmag / 40;
    wire [31:0] x_gmag = k_gmag % 40;
    wire en_nms = (cycle >= 64'd244) && (cycle < 64'd1444);
    wire [63:0] k_nms = cycle - 64'd244;
    wire [31:0] y_nms = k_nms / 40;
    wire [31:0] x_nms = k_nms % 40;
    wire en_thresh = (cycle >= 64'd245) && (cycle < 64'd1445);
    wire [63:0] k_thresh = cycle - 64'd245;
    wire [31:0] y_thresh = k_thresh / 40;
    wire [31:0] x_thresh = k_thresh % 40;
    wire en_hyst1 = (cycle >= 64'd326) && (cycle < 64'd1526);
    wire [63:0] k_hyst1 = cycle - 64'd326;
    wire [31:0] y_hyst1 = k_hyst1 / 40;
    wire [31:0] x_hyst1 = k_hyst1 % 40;
    wire en_hyst2 = (cycle >= 64'd407) && (cycle < 64'd1607);
    wire [63:0] k_hyst2 = cycle - 64'd407;
    wire [31:0] y_hyst2 = k_hyst2 / 40;
    wire [31:0] x_hyst2 = k_hyst2 % 40;
    wire en_edges = (cycle >= 64'd408) && (cycle < 64'd1608);
    wire [63:0] k_edges = cycle - 64'd408;
    wire [31:0] y_edges = k_edges / 40;
    wire [31:0] x_edges = k_edges % 40;
    wire signed [15:0] out_raw = stream_in_0;
    wire signed [15:0] out_blur_h;
    wire signed [15:0] out_blur_v;
    wire signed [15:0] out_gmag;
    wire signed [15:0] out_nms;
    wire signed [15:0] out_thresh;
    wire signed [15:0] out_hyst1;
    wire signed [15:0] out_hyst2;
    wire signed [15:0] out_edges;
    linebuf_raw u_lb_raw (
        .clk(clk),
        .wen(en_raw),
        .wrow(y_raw),
        .wcol(x_raw),
        .wdata(out_raw),
        .ren(1'b1),
        .rrow(y_raw),
        .rcol(x_raw),
        .rdata()
    );
    linebuf_blur_h u_lb_blur_h (
        .clk(clk),
        .wen(en_blur_h),
        .wrow(y_blur_h),
        .wcol(x_blur_h),
        .wdata(out_blur_h),
        .ren(1'b1),
        .rrow(y_blur_h),
        .rcol(x_blur_h),
        .rdata()
    );
    linebuf_blur_v u_lb_blur_v (
        .clk(clk),
        .wen(en_blur_v),
        .wrow(y_blur_v),
        .wcol(x_blur_v),
        .wdata(out_blur_v),
        .ren(1'b1),
        .rrow(y_blur_v),
        .rcol(x_blur_v),
        .rdata()
    );
    linebuf_gmag u_lb_gmag (
        .clk(clk),
        .wen(en_gmag),
        .wrow(y_gmag),
        .wcol(x_gmag),
        .wdata(out_gmag),
        .ren(1'b1),
        .rrow(y_gmag),
        .rcol(x_gmag),
        .rdata()
    );
    linebuf_nms u_lb_nms (
        .clk(clk),
        .wen(en_nms),
        .wrow(y_nms),
        .wcol(x_nms),
        .wdata(out_nms),
        .ren(1'b1),
        .rrow(y_nms),
        .rcol(x_nms),
        .rdata()
    );
    linebuf_thresh u_lb_thresh (
        .clk(clk),
        .wen(en_thresh),
        .wrow(y_thresh),
        .wcol(x_thresh),
        .wdata(out_thresh),
        .ren(1'b1),
        .rrow(y_thresh),
        .rcol(x_thresh),
        .rdata()
    );
    linebuf_hyst1 u_lb_hyst1 (
        .clk(clk),
        .wen(en_hyst1),
        .wrow(y_hyst1),
        .wcol(x_hyst1),
        .wdata(out_hyst1),
        .ren(1'b1),
        .rrow(y_hyst1),
        .rcol(x_hyst1),
        .rdata()
    );
    linebuf_hyst2 u_lb_hyst2 (
        .clk(clk),
        .wen(en_hyst2),
        .wrow(y_hyst2),
        .wcol(x_hyst2),
        .wdata(out_hyst2),
        .ren(1'b1),
        .rrow(y_hyst2),
        .rcol(x_hyst2),
        .rdata()
    );
    reg signed [15:0] sra_blur_h_0 [0:2];
    stage_blur_h u_blur_h (.clk(clk), .en(en_blur_h), .win0(sra_blur_h_0), .pixel_out(out_blur_h));
    reg signed [15:0] sra_blur_v_0 [0:2];
    stage_blur_v u_blur_v (.clk(clk), .en(en_blur_v), .win0(sra_blur_v_0), .pixel_out(out_blur_v));
    reg signed [15:0] sra_gmag_0 [0:8];
    stage_gmag u_gmag (.clk(clk), .en(en_gmag), .win0(sra_gmag_0), .pixel_out(out_gmag));
    reg signed [15:0] sra_nms_0 [0:8];
    stage_nms u_nms (.clk(clk), .en(en_nms), .win0(sra_nms_0), .pixel_out(out_nms));
    reg signed [15:0] sra_thresh_0 [0:0];
    stage_thresh u_thresh (.clk(clk), .en(en_thresh), .win0(sra_thresh_0), .pixel_out(out_thresh));
    reg signed [15:0] sra_hyst1_0 [0:8];
    stage_hyst1 u_hyst1 (.clk(clk), .en(en_hyst1), .win0(sra_hyst1_0), .pixel_out(out_hyst1));
    reg signed [15:0] sra_hyst2_0 [0:8];
    stage_hyst2 u_hyst2 (.clk(clk), .en(en_hyst2), .win0(sra_hyst2_0), .pixel_out(out_hyst2));
    reg signed [15:0] sra_edges_0 [0:0];
    stage_edges u_edges (.clk(clk), .en(en_edges), .win0(sra_edges_0), .pixel_out(out_edges));
    assign stream_out_0 = out_edges;
    assign frame_done = (cycle >= 64'd1608);
endmodule
